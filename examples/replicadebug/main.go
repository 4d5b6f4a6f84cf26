// Replicadebug: a scripted version of the §6.1 diagnosis session. It walks
// the reader through the queries Q3-Q7 one at a time on the simulated
// cluster with HDFS-6268 active, narrating what each result reveals —
// ending at the paper's conclusion that the NameNode returns rack-local
// replicas in a static order and clients always take the first.
//
//	go run ./examples/replicadebug
package main

import (
	"fmt"
	"time"

	"repro/internal/experiments"
)

func main() {
	fmt.Println("Symptom: stress test clients on some hosts have consistently")
	fmt.Println("lower request throughput despite identical hardware (Fig 8a).")
	fmt.Println()
	fmt.Println("Running the diagnosis queries on the simulated cluster with the")
	fmt.Println("HDFS-6268 bug active...")
	fmt.Println()

	cfg := experiments.DefaultFig8Config()
	cfg.Duration = 15 * time.Second
	res, err := experiments.RunFig8(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Render())

	fmt.Println()
	fmt.Println("Reading the results like the paper does:")
	fmt.Println(" - 8c: DataNode load is heavily skewed, although...")
	fmt.Println(" - 8d: ...clients pick files uniformly at random, and")
	fmt.Println(" - 8e: ...replicas are placed near-uniformly.")
	fmt.Println(" - 8f: clients clearly favour particular DataNodes.")
	fmt.Println(" - 8g: whenever the top-priority host holds a replica it is")
	fmt.Println("       *always* selected: replica order is static, and clients")
	fmt.Println("       always take the first location -> HDFS-6268.")
	fmt.Println()
	fmt.Println("Re-run with the fixes (NameNode shuffling + client random")
	fmt.Println("selection): `go run ./cmd/experiments -only \"Fig 8 (fixed)\"` —")
	fmt.Println("selection becomes uniform and client throughput evens out.")
}
