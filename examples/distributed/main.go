// Distributed: a real multi-runtime deployment over TCP. A frontend
// runtime serves the central pub/sub bus; two worker runtimes connect to
// it. A query installed at the frontend is compiled to advice, shipped
// over the wire, and woven into both workers' tracepoints; their
// per-interval reports stream back and aggregate globally. Baggage crosses
// between the workers as serialized bytes, exactly as it would ride an RPC
// header — so the happened-before join spans the two workers.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/pivot"
)

func main() {
	// The frontend: owns the query and the pub/sub server.
	frontend := pivot.New("frontend")
	frontend.Define("Gateway.Receive", "tenant")
	frontend.Define("Store.Write", "bytes")
	addr, shutdown, err := frontend.ServeBus("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer shutdown()

	// Worker 1: the gateway tier.
	gateway := pivot.New("gateway")
	tpRecv := gateway.Define("Gateway.Receive", "tenant")
	gwDisconnect, err := gateway.ConnectBus(addr)
	if err != nil {
		panic(err)
	}
	defer gwDisconnect()

	// Worker 2: the storage tier.
	store := pivot.New("store")
	tpWrite := store.Define("Store.Write", "bytes")
	stDisconnect, err := store.ConnectBus(addr)
	if err != nil {
		panic(err)
	}
	defer stDisconnect()

	// Install the cross-tier query at the frontend: bytes written at the
	// storage tier, grouped by the tenant recorded at the gateway tier.
	q, err := frontend.Install(`
		From w In Store.Write
		Join g In First(Gateway.Receive) On g -> w
		GroupBy g.tenant
		Select g.tenant, SUM(w.bytes), COUNT`)
	if err != nil {
		panic(err)
	}

	// Give the weave instructions time to propagate over TCP. The two
	// workers receive the install over separate connections, so wait for
	// both.
	deadline := time.Now().Add(2 * time.Second)
	for !(tpRecv.Enabled() && tpWrite.Enabled()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("advice woven remotely: gateway=%v store=%v\n",
		tpRecv.Enabled(), tpWrite.Enabled())

	// Traffic: each request enters at the gateway, hops to the store with
	// its baggage serialized into the message.
	tenants := []string{"acme", "globex", "initech"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		tenant := tenants[rng.Intn(len(tenants))]
		ctx := gateway.NewRequest(context.Background())
		tpRecv.Here(ctx, tenant)
		wireBytes := pivot.Inject(ctx) // rides the RPC to the store tier

		storeCtx := pivot.Extract(store.Context(context.Background()), wireBytes)
		tpWrite.Here(storeCtx, 512*(1+rng.Intn(8)))
	}

	// Workers report; results aggregate at the frontend.
	gateway.Flush()
	store.Flush()
	deadline = time.Now().Add(2 * time.Second)
	for len(q.Rows()) < len(tenants) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	fmt.Printf("\n%-10s %12s %8s\n", "tenant", "bytes", "writes")
	for _, row := range q.Rows() {
		fmt.Printf("%-10s %12s %8s\n", row[0], row[1], row[2])
	}
	fmt.Println("\nlive operator counters at the store worker:")
	fmt.Print(store.Agent.ExplainAnalyze())
}
