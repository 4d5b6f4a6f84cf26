// Command ptq parses, analyzes, and explains Pivot Tracing queries: it
// prints the canonicalized query, the output schema, and the compiled
// advice for each tracepoint in the paper's notation (§3).
//
// Usage:
//
//	ptq [-unoptimized] 'From incr In DataNodeMetrics.incrBytesRead ...'
//	echo 'From dnop In DN.DataTransferProtocol ...' | ptq
//	ptq -explain-analyze                          run the demo query, print measured plan
//	ptq -explain-analyze 'From r In Demo.Respond ...'
//
// Queries are resolved against the simulated Hadoop stack's tracepoint
// vocabulary (the same definitions the experiment harnesses use).
//
// With -explain-analyze, ptq actually executes the query over the
// scripted demo workload (querygen.DemoCase: an api request fanning out
// to two datanode reads and joining back, over tracepoints Demo.Request,
// Demo.Read, Demo.Respond) on a simulated cluster, then prints the plan
// annotated with measured per-operator counters — fires, join drops,
// filtered and packed tuples, baggage bytes, eviction counts, emits —
// plus the frontend merge line and the per-process agent breakdown. With
// no query argument it runs the demo case's own happened-before join.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/querygen"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
	"repro/internal/workload"
)

// vocabulary returns the tracepoints the simulated Hadoop stack defines:
// the master registry of a paper testbed (HDFS, HBase, YARN, MapReduce),
// plus StressTest.DoNextOp, which a StressTest client defines when it
// starts.
func vocabulary() *tracepoint.Registry {
	var reg *tracepoint.Registry
	env := simtime.NewEnv()
	env.Run(func() {
		tb := workload.NewTestbed(env, workload.DefaultTestbedConfig())
		tb.StartHBase(tb.Workers, 0)
		tb.StartMapReduce(tb.Workers, 0)
		reg = tb.C.PT.Registry()
	})
	reg.Define("StressTest.DoNextOp", "op")
	return reg
}

func main() {
	unopt := flag.Bool("unoptimized", false, "disable the Table 3 query rewrites")
	listTPs := flag.Bool("tracepoints", false, "list the known tracepoint vocabulary and exit")
	analyze := flag.Bool("explain-analyze", false, "execute the query over the scripted demo workload and print the measured plan")
	requests := flag.Int("requests", 1, "demo requests to execute with -explain-analyze")
	flag.Parse()

	reg := vocabulary()
	if *listTPs {
		for _, name := range reg.Names() {
			tp := reg.Lookup(name)
			fmt.Printf("%-36s exports: %s\n", name, tp.Schema())
		}
		return
	}

	text := strings.Join(flag.Args(), " ")
	if *analyze {
		out, err := runExplainAnalyze(text, *requests)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptq:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}
	if strings.TrimSpace(text) == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptq:", err)
			os.Exit(1)
		}
		text = string(data)
	}
	if strings.TrimSpace(text) == "" {
		fmt.Fprintln(os.Stderr, "ptq: no query given (pass as argument or on stdin)")
		os.Exit(2)
	}

	q, err := query.Parse(text)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptq:", err)
		os.Exit(1)
	}
	q.Name = "Q"
	opts := plan.Optimized
	opts.Optimize = !*unopt
	p, err := plan.Compile(q, reg, nil, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptq:", err)
		os.Exit(1)
	}
	fmt.Println("query:  ", q)
	fmt.Println("outputs:", p.Schema)
	fmt.Println()
	fmt.Println(p.Explain())
}

// runExplainAnalyze installs the query (default: the demo case's own
// happened-before join) in a simulated cluster, drives the scripted demo
// workload through it, and returns the plan annotated with the measured
// per-operator counters.
func runExplainAnalyze(text string, requests int) (string, error) {
	if strings.TrimSpace(text) == "" {
		text = querygen.DemoCase().QueryText
	}
	var h *core.Installed
	_, err := cluster.RunDemo(requests, func(cl *cluster.Cluster) (err error) {
		h, err = cl.PT.Install(text)
		return err
	})
	if err != nil {
		return "", err
	}
	return h.ExplainAnalyze(), nil
}
