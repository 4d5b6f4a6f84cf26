// Command pttrace renders causal request traces captured by Pivot
// Tracing's span layer: per-request DAGs reconstructed from the spans
// agents ship on the pt.trace topic, drawn as an indented tree with
// per-span timing, plus a summary table with end-to-end latency,
// critical-path time, and the dominant process tier of every trace.
//
// Usage:
//
//	pttrace -demo                    scripted demo workload (no deployment needed)
//	pttrace -demo -requests 3        several requests, one trace each
//	pttrace -addr 127.0.0.1:7000     collect live spans from a deployment's bus
//	pttrace -addr ... -collect 5s    how long to listen before rendering
//
// With -addr, pttrace joins the deployment's pub/sub server as a passive
// trace listener; the deployment must have span capture enabled
// (PT.EnableSpans / cluster.Config.Spans). With -demo it executes the
// fixed split/join storage workload (querygen.DemoCase) on a simulated
// cluster — a request fans out to two datanode reads and joins back — and
// renders the resulting traces.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/cluster"
	"repro/internal/spans"
	"repro/internal/wire"
)

func main() {
	demo := flag.Bool("demo", false, "run the scripted demo workload instead of connecting")
	requests := flag.Int("requests", 1, "demo requests to execute (one trace each)")
	addr := flag.String("addr", "", "pub/sub server address of the deployment")
	collect := flag.Duration("collect", 3*time.Second, "how long to listen for live spans")
	flag.Parse()

	switch {
	case *demo:
		out, err := runDemo(*requests)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pttrace:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *addr != "":
		out, err := collectLive(*addr, *collect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pttrace:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	default:
		fmt.Fprintln(os.Stderr, "pttrace: -demo or -addr required; see -help")
		os.Exit(2)
	}
}

// runDemo executes the fixed demo case on a simulated cluster with span
// capture enabled and renders every reconstructed trace.
func runDemo(requests int) (string, error) {
	cl, err := cluster.RunDemo(requests, nil)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	writeTraces(&out, cl.PT.Traces())
	return out.String(), nil
}

// collectLive joins the deployment's bus as a passive trace listener,
// accumulates span batches for the collection window, and renders what
// arrived.
func collectLive(addr string, window time.Duration) (string, error) {
	b := bus.New()
	builder := spans.NewBuilder()
	sub := b.Subscribe(agent.TraceTopic, func(msg any) {
		if sb, ok := msg.(agent.SpanBatch); ok {
			builder.AddBatch(sb.Spans)
		}
	})
	defer b.Unsubscribe(sub)

	link, err := bus.Connect(b, addr, wire.BusCodec{},
		nil, []string{agent.TraceTopic})
	if err != nil {
		return "", err
	}
	defer link.Close()

	time.Sleep(window)
	if builder.Len() == 0 {
		return "", fmt.Errorf("no spans within %s (is span capture enabled in the deployment?)", window)
	}
	var out strings.Builder
	writeTraces(&out, builder)
	return out.String(), nil
}

// writeTraces renders every trace's tree followed by the summary table.
func writeTraces(out *strings.Builder, builder *spans.Builder) {
	for _, id := range builder.TraceIDs() {
		out.WriteString(builder.Trace(id).RenderTree())
		out.WriteString("\n")
	}
	out.WriteString(builder.Summary())
}
