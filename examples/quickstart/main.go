// Quickstart: instrument a toy in-process service with Pivot Tracing,
// install a query at runtime, and read the streaming results.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/pivot"
)

func main() {
	// One Pivot Tracing runtime for this process.
	pt := pivot.New("orders-service")

	// Tracepoints: named locations in the code, declared with the
	// variables they export. Declaring them costs nothing until a query
	// weaves advice into them.
	tpRequest := pt.Define("Orders.HandleRequest", "endpoint", "size")
	tpDB := pt.Define("Orders.DBQuery", "table", "rows")

	// The service: every request crosses HandleRequest and one or more
	// DBQuery tracepoints.
	rng := rand.New(rand.NewSource(1))
	serve := func(ctx context.Context, endpoint string) {
		tpRequest.Here(ctx, endpoint, 100+rng.Intn(900))
		for i := 0; i < 1+rng.Intn(3); i++ {
			tpDB.Here(ctx, "orders", rng.Intn(50))
		}
	}

	// Install a query at runtime: how many DB rows does each endpoint
	// touch? The happened-before join (->) relates DB events to the
	// request event that caused them.
	q, err := pt.Install(`
		From db In Orders.DBQuery
		Join req In First(Orders.HandleRequest) On req -> db
		GroupBy req.endpoint
		Select req.endpoint, COUNT, SUM(db.rows)`)
	if err != nil {
		panic(err)
	}
	fmt.Println("installed query; compiled advice:")
	fmt.Println(q.Explain())
	fmt.Println()

	// Traffic.
	for i := 0; i < 1000; i++ {
		ctx := pt.NewRequest(context.Background())
		switch i % 3 {
		case 0:
			serve(ctx, "/checkout")
		case 1:
			serve(ctx, "/cart")
		default:
			serve(ctx, "/browse")
		}
	}

	// Agents normally report once per second; flush explicitly here.
	pt.Flush()
	fmt.Printf("%-12s %8s %10s\n", "endpoint", "queries", "rows")
	for _, row := range q.Rows() {
		fmt.Printf("%-12s %8s %10s\n", row[0], row[1], row[2])
	}

	// Live cost analysis (the paper's §4 "explain" with counts): what did
	// each operator of the query actually do?
	fmt.Println()
	fmt.Println(q.ExplainAnalyze())
}
