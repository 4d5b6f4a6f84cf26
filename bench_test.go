// Package repro's benchmark suite regenerates the paper's evaluation
// artifacts (see DESIGN.md for the experiment index):
//
//	Fig 1, 3, 6, 8, 9, §6.2, Tbl 5 - BenchmarkPaper/<step ID>
//	Fig 10 - BenchmarkFig10{Pack,Unpack,Serialize,Deserialize}
//	Tbl 3  - BenchmarkTable3Rewrites (ablation: optimizations on/off)
//	§6.3   - BenchmarkWeave (dynamic weave/unweave, the class-reload analog)
//
// Wall-clock numbers for the simulated experiments measure the simulator,
// not the monitored system; the figures' reproduction targets are what
// `ptbench -paper` prints.
package repro

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/cluster"
	"repro/internal/combiner"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
	"repro/internal/wire"
	"repro/pivot"
)

// tupleCounts are the x-axis of Fig 10.
var tupleCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// fig10Baggage builds baggage holding n randomly-valued 8-byte tuples.
func fig10Baggage(n int) *baggage.Baggage {
	b := baggage.New()
	spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"v"}}
	for i := 0; i < n; i++ {
		b.Pack("bench", spec, tuple.Tuple{tuple.Int(int64(i) * 0x1E3779B97F4A7C15)})
	}
	return b
}

// BenchmarkFig10Pack measures packing 1 tuple into baggage already holding
// N tuples (Fig 10a).
func BenchmarkFig10Pack(b *testing.B) {
	spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"v"}}
	for _, n := range tupleCounts {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			bag := fig10Baggage(n)
			t := tuple.Tuple{tuple.Int(42)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bag.Pack("bench2", spec, t)
			}
		})
	}
}

// BenchmarkFig10Unpack measures unpacking all N tuples (Fig 10b).
func BenchmarkFig10Unpack(b *testing.B) {
	for _, n := range tupleCounts {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			bag := fig10Baggage(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := bag.Unpack("bench"); len(got) != n {
					b.Fatalf("unpacked %d", len(got))
				}
			}
		})
	}
}

// BenchmarkFig10Serialize measures serializing baggage with N tuples
// (Fig 10c).
func BenchmarkFig10Serialize(b *testing.B) {
	for _, n := range tupleCounts {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			bag := fig10Baggage(n)
			size := len(bag.Serialize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := bag.Serialize(); len(out) != size {
					b.Fatal("size changed")
				}
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}

// BenchmarkFig10Deserialize measures deserializing baggage with N tuples,
// forcing the lazy decode by unpacking (Fig 10d).
func BenchmarkFig10Deserialize(b *testing.B) {
	for _, n := range tupleCounts {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			wire := fig10Baggage(n).Serialize()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bag := baggage.Deserialize(wire)
				if got := bag.Unpack("bench"); len(got) != n {
					b.Fatalf("unpacked %d", len(got))
				}
			}
		})
	}
}

// BenchmarkBaggageLazyForwarding is the laziness ablation (§5): a process
// that merely forwards baggage (serialize what it received) pays no decode
// cost, unlike an eager implementation.
func BenchmarkBaggageLazyForwarding(b *testing.B) {
	wire := fig10Baggage(64).Serialize()
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bag := baggage.Deserialize(wire)
			if out := bag.Serialize(); len(out) != len(wire) {
				b.Fatal("roundtrip changed size")
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bag := baggage.Deserialize(wire)
			bag.TupleCount() // force the decode
			if out := bag.Serialize(); len(out) != len(wire) {
				b.Fatal("roundtrip changed size")
			}
		}
	})
}

// BenchmarkBudgetPressure measures the safety-valve tax on one request
// that packs 32 AGG groups: plain Pack, PackBudgeted with the (ample)
// default budget — the pure accounting cost — and PackBudgeted under a
// 4-tuple budget, where 28 of the packs churn through whole-group
// eviction, tombstone writes, and refusal of re-packs.
func BenchmarkBudgetPressure(b *testing.B) {
	spec := baggage.SetSpec{
		Kind: baggage.Agg, Fields: tuple.Schema{"k", "v"},
		GroupBy: []int{0}, Aggs: []baggage.AggField{{Pos: 1, Fn: agg.Sum}},
	}
	rows := make([]tuple.Tuple, 32)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.String(fmt.Sprintf("k%02d", i)), tuple.Int(int64(i))}
	}
	b.Run("unbudgeted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bag := baggage.New()
			for _, t := range rows {
				bag.Pack("q.a", spec, t)
			}
		}
	})
	b.Run("default-budget", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bag := baggage.New()
			for _, t := range rows {
				bag.PackBudgeted("q", "q.a", spec, baggage.Budget{}, t)
			}
		}
	})
	b.Run("budget=4", func(b *testing.B) {
		budget := baggage.Budget{MaxTuples: 4}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bag := baggage.New()
			for _, t := range rows {
				bag.PackBudgeted("q", "q.a", spec, budget, t)
			}
		}
	})
}

// BenchmarkTracepoint measures the zero-overhead-when-disabled claim and
// the per-crossing cost with advice woven.
func BenchmarkTracepoint(b *testing.B) {
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Bench.Tracepoint", "v")
	ctx := tracepoint.WithProc(context.Background(),
		tracepoint.ProcInfo{Host: "h", ProcName: "p"})
	// Boxed once: boxing the loop counter is one more allocation for every
	// i >= 256, which leaves allocs/op a hair under a whole number — it
	// rounds down or up by the run — and the alloc gate wants it exact.
	var v any = 1000
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tp.Here(ctx, v)
		}
	})
	// woven weaves one query's advice, folding into an accumulator, for
	// the length of a sub-benchmark.
	woven := func(name, text string) {
		b.Run(name, func(b *testing.B) {
			q, err := query.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			q.Name = "bench"
			p, err := plan.Compile(q, reg, nil, plan.Optimized)
			if err != nil {
				b.Fatal(err)
			}
			acc := advice.NewAccumulator(p.Emit.Emit)
			adv := &advice.Advice{Prog: p.Programs[0], Emitter: emitterFunc(func(prog *advice.Program, w tuple.Tuple) {
				acc.Add(w)
			})}
			reg.Weave("Bench.Tracepoint", adv)
			defer reg.Unweave("Bench.Tracepoint", adv)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp.Here(ctx, v)
			}
		})
	}
	woven("woven-q1-style", `From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v)`)
	// A Where and a computed aggregate: the expressions are bound at
	// compile time, so this crossing allocates no more than q1's.
	woven("woven-filtered", `From e In Bench.Tracepoint Where e.v >= 1000 GroupBy e.host Select e.host, SUM(e.v * 2)`)
}

// BenchmarkTracepointTelemetry bounds the self-telemetry tax on the
// disabled fast path. "plain" is the default: Here is three atomic loads
// (advice, hit counter, span sink) and no add. "telemetry" attaches a
// registry, so every crossing also bumps the tracepoint's hit counter: one
// atomic add. Both allocate nothing (cmd/benchgate gates it).
func BenchmarkTracepointTelemetry(b *testing.B) {
	ctx := tracepoint.WithProc(context.Background(),
		tracepoint.ProcInfo{Host: "h", ProcName: "p"})
	b.Run("disabled-plain", func(b *testing.B) {
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Bench.Tracepoint", "v")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tp.Here(ctx, i)
		}
	})
	b.Run("disabled-telemetry", func(b *testing.B) {
		reg := tracepoint.NewRegistry()
		reg.SetTelemetry(telemetry.NewRegistry())
		tp := reg.Define("Bench.Tracepoint", "v")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tp.Here(ctx, i)
		}
	})
}

// BenchmarkHereWithSpans bounds the span-capture tax on the woven
// crossing. "spans-off" is the shipped default — no sink attached — and
// must stay at the BenchmarkTracepoint/woven-q1-style floor with zero
// allocs/op: span capture's existence may not tax deployments that never
// enable it. "sink-no-baggage" attaches the recorder but crosses without
// baggage, so the sink loads, sees nil baggage, and bails — one extra
// atomic load, still zero allocations. "spans-on" is the paid path:
// every crossing unpacks the trace frontier, records a span into the
// ring, and advances the slot.
func BenchmarkHereWithSpans(b *testing.B) {
	for _, mode := range []struct {
		name    string
		spans   bool
		baggage bool
	}{
		{"spans-off", false, true},
		{"sink-no-baggage", true, false},
		{"spans-on", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			a, _, tp := benchInstall(b, 1, "")
			defer a.Close()
			if mode.spans {
				a.EnableSpans(1<<32, 0)
			}
			ctx := tracepoint.WithProc(context.Background(),
				tracepoint.ProcInfo{Host: "h", ProcName: "p"})
			if mode.baggage {
				ctx = baggage.NewContext(ctx, baggage.New())
			}
			var v any = 1000 // boxed once, as in BenchmarkTracepoint
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp.Here(ctx, v)
			}
			b.StopTimer()
			a.Flush()
		})
	}
}

// BenchmarkHereSampled prices request-level sampling on the woven hot
// path. "suppressed" is the sampled-out fast path: the decision minted
// into the request's baggage says skip, so the crossing must return
// before acquiring fire scratch — zero allocs, at or below the plain
// woven crossing's cost. "kept" pays the full path plus the weighted
// fold (weight 1/rate), and "no-decision" is a request from an
// unmonitored origin, processed exactly at weight 1 — both also 0
// allocs/op, pinned by the bench gate.
func BenchmarkHereSampled(b *testing.B) {
	for _, mode := range []struct {
		name     string
		decision float64 // rate packed into baggage; < 0 packs none
	}{
		{"suppressed", 0},
		{"kept", 0.5},
		{"no-decision", -1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			bb := bus.New()
			reg := tracepoint.NewRegistry()
			tp := reg.Define("Bench.Tracepoint", "v")
			a := agent.New(nil, tracepoint.ProcInfo{Host: "h", ProcName: "p"}, reg, bb, 0)
			defer a.Close()
			q, err := query.Parse(`From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v) Sample 0.5`)
			if err != nil {
				b.Fatal(err)
			}
			q.Name = "bench"
			p, err := plan.Compile(q, reg, nil, plan.Optimized)
			if err != nil {
				b.Fatal(err)
			}
			a.Deliver(agent.Install{QueryID: "bench", Programs: p.Programs})
			ctx := tracepoint.WithProc(context.Background(),
				tracepoint.ProcInfo{Host: "h", ProcName: "p"})
			bag := baggage.New()
			if mode.decision >= 0 {
				bag.PackSampleDecision("bench", mode.decision)
			}
			ctx = baggage.NewContext(ctx, bag)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tp.Here(ctx, 1)
			}
			b.StopTimer()
			a.Flush()
		})
	}
}

type emitterFunc func(*advice.Program, tuple.Tuple)

func (f emitterFunc) EmitTuple(p *advice.Program, w tuple.Tuple) { f(p, w) }

// benchInstall stands up a real agent with n woven Q1-style queries on one
// tracepoint, owned by tenant ("" for none), and returns the pieces the
// hot-path benchmarks drive.
func benchInstall(b *testing.B, n int, tenant string) (*agent.Agent, *bus.Bus, *tracepoint.Tracepoint) {
	b.Helper()
	bb := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Bench.Tracepoint", "v")
	a := agent.New(nil, tracepoint.ProcInfo{Host: "h", ProcName: "p"}, reg, bb, 0)
	for i := 0; i < n; i++ {
		q, err := query.Parse(`From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v)`)
		if err != nil {
			b.Fatal(err)
		}
		q.Name = fmt.Sprintf("q%02d", i)
		p, err := plan.Compile(q, reg, nil, plan.Optimized)
		if err != nil {
			b.Fatal(err)
		}
		a.Deliver(agent.Install{QueryID: q.Name, Programs: p.Programs, Tenant: tenant})
	}
	return a, bb, tp
}

// BenchmarkHereParallel measures the multicore hot path end to end —
// tracepoint fire, advice, agent EmitTuple, accumulator fold — under
// RunParallel at the -cpu list (the bench gate pins 1, 4, and 8). Every
// goroutine folds into the query's one accumulator, behind its one lock.
func BenchmarkHereParallel(b *testing.B) {
	bb := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Bench.Tracepoint", "v")
	a := agent.New(nil, tracepoint.ProcInfo{Host: "h", ProcName: "p"}, reg, bb, 0)
	defer a.Close()
	q, err := query.Parse(`From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v)`)
	if err != nil {
		b.Fatal(err)
	}
	q.Name = "bench"
	p, err := plan.Compile(q, reg, nil, plan.Optimized)
	if err != nil {
		b.Fatal(err)
	}
	a.Deliver(agent.Install{QueryID: "bench", Programs: p.Programs})
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := tracepoint.WithProc(context.Background(),
			tracepoint.ProcInfo{Host: "h", ProcName: "p"})
		ctx = baggage.NewContext(ctx, baggage.New())
		for pb.Next() {
			tp.Here(ctx, 1)
		}
	})
	b.StopTimer()
	a.Flush()
}

// BenchmarkReportBatch measures one flush interval of a 64-query agent:
// drain, snapshot-encode, and publication as one size-capped ReportBatch
// frame. (The sub-benchmark name is the BENCH_5.json gate key.)
func BenchmarkReportBatch(b *testing.B) {
	const queries = 64
	b.Run("batched", func(b *testing.B) {
		a, bb, tp := benchInstall(b, queries, "")
		defer a.Close()
		frames := 0
		bb.Subscribe(agent.ResultsTopic, func(any) { frames++ })
		ctx := tracepoint.WithProc(context.Background(),
			tracepoint.ProcInfo{Host: "h", ProcName: "p"})
		ctx = baggage.NewContext(ctx, baggage.New())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tp.Here(ctx, 1) // one crossing feeds all 64 queries
			a.Flush()
		}
		b.ReportMetric(float64(frames)/float64(b.N), "frames/flush")
	})
}

// BenchmarkAgentFlush measures a quiet reporting interval of an agent
// holding 0, 1 or 8 installed queries, untenanted or owned by one tenant
// that has emitted here before: nothing was folded in since the last
// flush, so an interval should cost its heartbeat, the tenant's usage
// frame, and nothing per query.
func BenchmarkAgentFlush(b *testing.B) {
	for _, queries := range []int{0, 1, 8} {
		for _, tenant := range []string{"", "t1"} {
			b.Run(fmt.Sprintf("queries=%d/tenant=%s", queries, cmp.Or(tenant, "none")), func(b *testing.B) {
				a, _, tp := benchInstall(b, queries, tenant)
				defer a.Close()
				ctx := tracepoint.WithProc(context.Background(),
					tracepoint.ProcInfo{Host: "h", ProcName: "p"})
				tp.Here(baggage.NewContext(ctx, baggage.New()), 1)
				a.Flush() // the tenant's usage is on record from here on
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Flush()
				}
			})
		}
	}
}

// BenchmarkCombinerFlush measures one steady interval of a mid-tier
// combiner: a frame of 8 queries × 1024 groups over the keys of the
// interval before is merged in, then flushed upstream.
func BenchmarkCombinerFlush(b *testing.B) {
	const queries, keys = 8, 1024
	reports := make([]agent.Report, queries)
	for q := range reports {
		groups := make([]*advice.Group, keys)
		for k := range groups {
			key := fmt.Sprintf("key-%04d", k)
			groups[k] = &advice.Group{Key: key, Rep: tuple.Tuple{tuple.String(key)}, States: []agg.State{*agg.New(agg.Count)}}
		}
		reports[q] = agent.Report{QueryID: fmt.Sprintf("q%d", q), Host: "h", ProcName: "w", Groups: groups}
	}
	var frame any = agent.ReportBatch{Reports: reports} // boxed once
	bb := bus.New()
	c := combiner.New(nil, "rack0", "combiner", bb, combiner.Config{Subscribe: []string{"part"}, Upstream: combiner.RootTopic})
	defer c.Close()
	interval := func() {
		bb.Publish("part", frame)
		c.Flush()
	}
	interval() // the first interval sizes the tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interval()
	}
}

// BenchmarkServerRelay measures the TCP bus server relaying 64 KiB frames
// from one raw connection to another that subscribed to their topic, 8
// frames per op, each sent once the one before has arrived. At steady
// state the server reads every frame into a buffer it reuses.
func BenchmarkServerRelay(b *testing.B) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	frame := func(topic string, payload []byte) []byte {
		f := binary.AppendUvarint(nil, uint64(len(topic)))
		f = append(f, topic...)
		f = binary.AppendUvarint(f, uint64(len(payload)))
		return append(f, payload...)
	}
	dial := func(topics string) net.Conn {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(frame(bus.SubscribeTopic, []byte(topics))); err != nil {
			b.Fatal(err)
		}
		return conn
	}
	sub, pub := dial("tp"), dial("")
	defer sub.Close()
	defer pub.Close()
	msg, r := frame("tp", make([]byte, 64<<10)), bufio.NewReader(sub)
	buf := make([]byte, len(msg))
	relay := func() {
		for i := 0; i < 8; i++ {
			if _, err := pub.Write(msg); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(r, buf); err != nil || !bytes.Equal(buf, msg) {
				b.Fatalf("relayed frame differs from the one sent (%v)", err)
			}
		}
	}
	relay() // sizes the server's buffers, queue and scratch
	b.SetBytes(int64(8 * len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relay()
	}
}

// BenchmarkWeave measures dynamic weave + unweave of a compiled query —
// the analog of the paper's ~100 ms JVM class reload (§6.3). The Go
// implementation swaps an atomic pointer instead of rewriting bytecode.
func BenchmarkWeave(b *testing.B) {
	reg := tracepoint.NewRegistry()
	reg.Define("Bench.Tracepoint", "v")
	q, _ := query.Parse(`From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v)`)
	q.Name = "bench"
	p, err := plan.Compile(q, reg, nil, plan.Optimized)
	if err != nil {
		b.Fatal(err)
	}
	adv := &advice.Advice{Prog: p.Programs[0]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Weave("Bench.Tracepoint", adv)
		reg.Unweave("Bench.Tracepoint", adv)
	}
}

// BenchmarkCompile measures query-to-advice compilation (install path).
func BenchmarkCompile(b *testing.B) {
	reg := tracepoint.NewRegistry()
	reg.Define("DN.DataTransferProtocol")
	reg.Define("NN.GetBlockLocations", "replicas")
	reg.Define("StressTest.DoNextOp")
	text := `From DNop In DN.DataTransferProtocol
	  Join getloc In NN.GetBlockLocations On getloc -> DNop
	  Join st In StressTest.DoNextOp On st -> getloc
	  Where st.host != DNop.host
	  GroupBy DNop.host, getloc.replicas
	  Select DNop.host, getloc.replicas, COUNT`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		q.Name = "q7"
		if _, err := plan.Compile(q, reg, nil, plan.Optimized); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Rewrites is the optimization ablation: evaluate the same
// chained query with the Table 3 rewrites on and off and report the
// baggage bytes a request carries.
func BenchmarkTable3Rewrites(b *testing.B) {
	text := `From DNop In DN.DataTransferProtocol
	  Join getloc In NN.GetBlockLocations On getloc -> DNop
	  Join st In StressTest.DoNextOp On st -> getloc
	  Where st.host != DNop.host
	  GroupBy DNop.host
	  Select DNop.host, COUNT`
	for _, mode := range []struct {
		name string
		opts plan.Options
	}{
		{"optimized", plan.Options{Optimize: true}},
		{"unoptimized", plan.Options{Optimize: false}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reg := tracepoint.NewRegistry()
			reg.Define("DN.DataTransferProtocol")
			reg.Define("NN.GetBlockLocations", "replicas")
			reg.Define("StressTest.DoNextOp")
			q, _ := query.Parse(text)
			q.Name = "q"
			p, err := plan.Compile(q, reg, nil, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			acc := advice.NewAccumulator(p.Emit.Emit)
			em := emitterFunc(func(prog *advice.Program, w tuple.Tuple) { acc.Add(w) })
			for _, prog := range p.Programs {
				reg.Weave(prog.Tracepoint, &advice.Advice{Prog: prog, Emitter: em})
			}
			st := reg.Lookup("StressTest.DoNextOp")
			nn := reg.Lookup("NN.GetBlockLocations")
			dn := reg.Lookup("DN.DataTransferProtocol")

			var bytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := tracepoint.WithProc(context.Background(),
					tracepoint.ProcInfo{Host: "client", ProcName: "StressTest"})
				ctx = baggage.NewContext(ctx, baggage.New())
				st.Here(ctx)
				nn.Here(ctx, "r1,r2,r3")
				bytes += int64(baggage.FromContext(ctx).ByteSize())
				dn.Here(ctx)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "baggage-bytes/req")
		})
	}
}

// BenchmarkPartialAggregation is the process-local aggregation ablation:
// accumulating emitted tuples into groups versus buffering them raw.
func BenchmarkPartialAggregation(b *testing.B) {
	op := &advice.EmitOp{
		Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: 1, Fn: agg.Sum}},
		GroupBy: []int{0},
		Schema:  tuple.Schema{"host", "SUM(v)"},
	}
	w := tuple.Tuple{tuple.String("host-1"), tuple.Int(8192)}
	b.Run("aggregated", func(b *testing.B) {
		acc := advice.NewAccumulator(op)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc.Add(w)
		}
		b.ReportMetric(float64(len(acc.Groups())), "rows-to-report")
	})
	b.Run("raw-buffered", func(b *testing.B) {
		buf := make([]tuple.Tuple, 0, b.N)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = append(buf, w.Clone())
		}
		b.ReportMetric(float64(len(buf)), "rows-to-report")
	})
}

// BenchmarkPaper runs each step of the paper's evaluation at the short
// sizing, the run internal/experiments' tests pin. Wall-clock numbers here
// measure the simulator, not the monitored system.
func BenchmarkPaper(b *testing.B) {
	for _, s := range experiments.Paper() {
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetsimEventQueue measures raw event-queue throughput of the
// network simulator: 64 hosts on a racked topology send flows large
// enough to ride the shared max-min machinery, so every completion and
// reshare goes through the engine's timer queue. ns/op here is wall time
// per simulated flow — the budget that bounds how many requests a
// thousand-host ptbench scenario can push per second of real time.
func BenchmarkNetsimEventQueue(b *testing.B) {
	const hosts = 64
	b.ReportAllocs()
	env := simtime.NewEnv()
	env.Run(func() {
		net := netsim.New(env)
		topo := netsim.BuildTopology(net, netsim.TopologyConfig{
			Racks: 4, HostsPerRack: 16,
			RackUplink: 4 * netsim.Gbit,
		})
		wg := env.NewWaitGroup()
		per := (b.N + hosts - 1) / hosts
		for i := 0; i < hosts; i++ {
			i := i
			wg.Add(1)
			env.Go(func() {
				defer wg.Done()
				src := topo.Host(i)
				dst := topo.Host((i + 17) % hosts)
				for k := 0; k < per; k++ {
					// Vary sizes so completions interleave and force
					// reshares instead of draining in lockstep.
					src.Send(dst, 64e3+float64((i+k)%7)*16e3)
				}
			})
		}
		wg.Wait()
	})
}

// BenchmarkSimRPC measures what the simulation substrate charges for one
// request with the tracer idle: NewRequest plus one Call between processes
// on two hosts — two netsim flows and the parks in virtual time they cost,
// two context nodes each holding its baggage — the round trip
// cluster.TestAllocsRPC pins.
// allocs/op here is the floor under every ptbench request.
func BenchmarkSimRPC(b *testing.B) {
	b.ReportAllocs()
	env := simtime.NewEnv()
	env.Run(func() {
		c := cluster.New(env, cluster.DefaultConfig())
		client, server := c.Start("h1", "client"), c.Start("h2", "server")
		server.Handle("Svc.Echo", func(ctx context.Context, req any) (any, error) { return req, nil })
		sz := cluster.Sizes{Request: 100, Response: 100}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Call(client.NewRequest(), server, "Svc.Echo", nil, sz); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimHandoff measures the scheduler alone: two managed goroutines
// ping-pong through a pair of simtime.Queues with no virtual time passing,
// one op being one round trip — two parks, two wake-ups, and two switches
// of the running goroutine.
func BenchmarkSimHandoff(b *testing.B) {
	b.ReportAllocs()
	env := simtime.NewEnv()
	env.Run(func() {
		ping, pong := simtime.NewQueue[int](env), simtime.NewQueue[int](env)
		env.Go(func() {
			for {
				pong.Push(ping.Pop())
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Push(i)
			pong.Pop()
		}
	})
}

// BenchmarkSimTimers measures the timer queue under a herd's load: 128
// managed goroutines sleep in turn through the herd scenario's four delay
// classes (a small flow's 1.6µs, NameNode CPU's 30µs, RPC latency's
// 200µs, the agent interval's 100ms) while 8 more wait on a Cond with a
// timeout that every 4th sleep cancels by a Signal. One op is one Sleep:
// its arm, the pop that wakes it, and the switch to the goroutine it
// wakes. Set-up, including one warm-up round of every class, is outside
// the timing.
func BenchmarkSimTimers(b *testing.B) {
	const sleepers, waiters = 128, 8
	classes := [...]time.Duration{200 * time.Microsecond, 1600 * time.Nanosecond, 30 * time.Microsecond, 100 * time.Millisecond}
	b.ReportAllocs()
	env := simtime.NewEnv()
	env.Run(func() {
		cond := env.NewCond(nil)
		for i := 0; i < waiters; i++ {
			env.Go(func() {
				for {
					cond.WaitTimeout(time.Second)
				}
			})
		}
		per := (b.N + sleepers - 1) / sleepers
		warm, start, done := env.NewWaitGroup(), env.NewWaitGroup(), env.NewWaitGroup()
		warm.Add(sleepers)
		start.Add(1)
		done.Add(sleepers)
		for i := 0; i < sleepers; i++ {
			env.Go(func() {
				defer done.Done()
				for _, d := range classes {
					env.Sleep(d)
				}
				warm.Done()
				start.Wait()
				for k := 0; k < per; k++ {
					env.Sleep(classes[(i+k)%len(classes)])
					if k%4 == 0 {
						cond.Signal()
					}
				}
			})
		}
		warm.Wait()
		b.ResetTimer()
		start.Done()
		done.Wait()
	})
}

// hbQuery is the happened-before join of the hb-crossings workload in
// bench/: Store.Write joined to the first causally-preceding
// Gateway.Receive, grouped by tenant.
const hbQuery = `From w In Store.Write
Join g In First(Gateway.Receive) On g -> w
GroupBy g.tenant
Select g.tenant, SUM(w.bytes), COUNT`

// BenchmarkHBRequest measures the whole in-band cost of one request of
// that workload — the nine calls of bench/workload_hb.go's request:
// NewRequest, Here (pack), Inject, Extract, Split, Here×2 (unpack +
// emit on each branch), Join, Here — with inputs boxed up front so only
// the tracer's allocations are counted. The rows are what the request
// pays with no query installed, with the hb query, and with the hb query
// plus seven single-tracepoint queries (hbSingle).
func BenchmarkHBRequest(b *testing.B) {
	for _, queries := range []int{0, 1, 8} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			pt := pivot.New("bench")
			recv := pt.Define("Gateway.Receive", "tenant")
			write := pt.Define("Store.Write", "bytes")
			for i := 0; i < queries; i++ {
				text := hbQuery
				if i > 0 {
					text = hbSingle(i)
				}
				if _, err := pt.Install(text); err != nil {
					b.Fatal(err)
				}
			}
			stCtx := pt.Context(context.Background())
			var tenant, size any = "tenant-1", int64(512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := pt.NewRequest(context.Background())
				recv.Here(ctx, tenant)
				wire := pivot.Inject(ctx)
				sctx := pivot.Extract(stCtx, wire)
				l, r := pivot.Split(sctx)
				write.Here(l, size)
				write.Here(r, size)
				joined := pivot.Join(sctx, l, r)
				write.Here(joined, size)
			}
		})
	}
}

// hbSingle is the i-th single-tracepoint query of BenchmarkHBRequest's
// queries=8 row: grouped sums on Store.Write, crossed three times a
// request, alternating with grouped counts on Gateway.Receive, crossed
// once.
func hbSingle(i int) string {
	if i%2 == 0 {
		return fmt.Sprintf(`From g In Gateway.Receive Where g.time > %d GroupBy g.tenant Select g.tenant, COUNT`, i)
	}
	return fmt.Sprintf(`From w In Store.Write Where w.bytes > %d GroupBy w.host Select w.host, SUM(w.bytes)`, i)
}

// BenchmarkWideReport measures the reporting path, one op being four
// rounds of bench/'s wide-groups workload on one worker. A round is 8192
// crossings that each create a group, Flush, the report frame through
// wire.Marshal and one wire.Decoder kept across rounds, as a link keeps
// its own, the frontend's merge into rows it already holds, and Rows(). allocs/op over 4×8192 is the cost of a
// reported row (pinned per layer by pivot.TestAllocsWideRound); the gate
// holds it to 1%. A round costs about a hundred objects, none of them per
// row. An op allocates tens of megabytes, so under the default GC
// percentage collections land inside it at points that depend on the
// machine, and each empties the sync.Pools it meets, which then refill.
// So each op starts after an untimed collection and runs with the
// collector off: the count is what the reporting path allocates, whatever
// the collector does.
func BenchmarkWideReport(b *testing.B) {
	const rows = 8192
	worker, front := pivot.New("worker"), pivot.New("frontend")
	tp := worker.Define("Svc.Handle", "key", "v")
	front.Define("Svc.Handle", "key", "v")
	front.Bus.Subscribe(agent.ControlTopic, func(msg any) { worker.Bus.Publish(agent.ControlTopic, msg) })
	var dec wire.Decoder // kept across rounds, as a link keeps its own
	worker.Bus.Subscribe(agent.ResultsTopic, func(msg any) {
		frame, err := wire.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		decoded, err := dec.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		front.Bus.Publish(agent.ResultsTopic, decoded)
	})
	q, err := front.Install(`From e In Svc.Handle GroupBy e.key Select e.key, COUNT, SUM(e.v)`)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]any, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	var one any = int64(1)
	ctx := worker.NewRequest(context.Background())
	round := func() {
		for _, k := range keys {
			tp.Here(ctx, k, one)
		}
		worker.Flush()
		if got := len(q.Rows()); got != rows {
			b.Fatalf("%d rows visible, want %d", got, rows)
		}
	}
	round() // sizes the worker's table and fills the frontend's
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // what the last op allocated; keeps the heap at one op's worth
		b.StartTimer()
		for r := 0; r < 4; r++ {
			round()
		}
	}
}

// wideRound runs one round of bench/'s wide-groups workload on one worker:
// 8192 keys crossed once each, in a seed-drawn order, then a Flush whose
// report frame goes through wire.Marshal and wire.Unmarshal to a
// frontend. It returns the frontend's query, which has first seen the
// groups in that order, and the frame.
func wideRound(b *testing.B) (*pivot.Query, []byte) {
	const rows = 8192
	worker, front := pivot.New("worker"), pivot.New("frontend")
	tp := worker.Define("Svc.Handle", "key", "v")
	front.Define("Svc.Handle", "key", "v")
	front.Bus.Subscribe(agent.ControlTopic, func(msg any) { worker.Bus.Publish(agent.ControlTopic, msg) })
	var frame []byte
	worker.Bus.Subscribe(agent.ResultsTopic, func(msg any) {
		var err error
		if frame, err = wire.Marshal(msg); err != nil {
			b.Fatal(err)
		}
		decoded, err := wire.Unmarshal(frame)
		if err != nil {
			b.Fatal(err)
		}
		front.Bus.Publish(agent.ResultsTopic, decoded)
	})
	q, err := front.Install(`From e In Svc.Handle GroupBy e.key Select e.key, COUNT, SUM(e.v)`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := worker.NewRequest(context.Background())
	for _, k := range rand.New(rand.NewSource(1)).Perm(rows) {
		tp.Here(ctx, fmt.Sprintf("key-%05d", k), int64(k))
	}
	worker.Flush()
	if got := len(q.Rows()); got != rows {
		b.Fatalf("%d rows visible, want %d", got, rows)
	}
	return q, frame
}

// BenchmarkRowsWide measures a steady read of the standing result of 8192
// groups, first seen in a seed-drawn order: what wide-groups pays for
// Rows() each round once no group is new. An op is the rows, materialized
// in the order the last read left, and the pass that finds them sorted.
func BenchmarkRowsWide(b *testing.B) {
	q, _ := wideRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Rows()
	}
}

// BenchmarkDecodeWideReport measures a link's decode of wide-groups'
// 8192-row report frame with the one wire.Decoder it keeps across frames,
// which cuts each frame's groups and states from the memory of the last.
func BenchmarkDecodeWideReport(b *testing.B) {
	_, frame := wideRound(b)
	var dec wire.Decoder
	if _, err := dec.Decode(frame); err != nil { // sizes the decoder's slabs
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
