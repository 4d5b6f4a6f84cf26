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
	"context"
	"fmt"
	"testing"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/cluster"
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
				bag.PackBudgeted("q.a", spec, baggage.Budget{}, t)
			}
		}
	})
	b.Run("budget=4", func(b *testing.B) {
		budget := baggage.Budget{MaxTuples: 4}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bag := baggage.New()
			for _, t := range rows {
				bag.PackBudgeted("q.a", spec, budget, t)
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
	b.Run("woven-q1-style", func(b *testing.B) {
		q, _ := query.Parse(`From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v)`)
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

// BenchmarkTracepointTelemetry bounds the self-telemetry tax on the
// disabled fast path. "plain" is the seed behavior: Here is one atomic
// load. "telemetry" attaches a registry, so every crossing also bumps the
// tracepoint's hit counter: one extra atomic load plus one atomic add,
// which must stay within ~2x of plain (the ISSUE's acceptance bound).
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
			a, _, tp := benchInstall(b, 1)
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
// tracepoint and returns the pieces the hot-path benchmarks drive.
func benchInstall(b *testing.B, n int) (*agent.Agent, *bus.Bus, *tracepoint.Tracepoint) {
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
		a.Deliver(agent.Install{QueryID: q.Name, Programs: p.Programs})
	}
	return a, bb, tp
}

// BenchmarkHereParallel measures the multicore hot path end to end —
// tracepoint fire, advice, agent EmitTuple, accumulator fold — under
// RunParallel at the -cpu list (the bench gate pins 1, 4, and 8).
// "sharded" is the shipped configuration (per-P accumulator stripes);
// "unsharded" forces one shard, the Table 5-era single-mutex baseline, so
// the scaling claim is an in-tree ablation rather than a git archaeology
// exercise.
func BenchmarkHereParallel(b *testing.B) {
	for _, mode := range []struct {
		name   string
		shards int
	}{
		{"sharded", 0},
		{"unsharded", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			bb := bus.New()
			reg := tracepoint.NewRegistry()
			tp := reg.Define("Bench.Tracepoint", "v")
			a := agent.New(nil, tracepoint.ProcInfo{Host: "h", ProcName: "p"}, reg, bb, 0)
			defer a.Close()
			a.SetAccumulatorShards(mode.shards)
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
		})
	}
}

// BenchmarkReportBatch measures one flush interval of a 64-query agent:
// drain, snapshot-encode, and publication as one size-capped ReportBatch
// frame. (The sub-benchmark name is the BENCH_5.json gate key.)
func BenchmarkReportBatch(b *testing.B) {
	const queries = 64
	b.Run("batched", func(b *testing.B) {
		a, bb, tp := benchInstall(b, queries)
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

// BenchmarkWideReport measures the reporting path, one op being one round
// of bench/'s wide-groups workload on one worker: 8192 crossings that
// each create a group, Flush, the report frame through wire.Marshal and
// wire.Unmarshal, the frontend's merge into rows it already holds, and
// Rows(). allocs/op over 8192 is the cost of a reported row (pinned per
// layer by pivot.TestAllocsWideRound); the gate holds it to 1%.
func BenchmarkWideReport(b *testing.B) {
	const rows = 8192
	worker, front := pivot.New("worker"), pivot.New("frontend")
	tp := worker.Define("Svc.Handle", "key", "v")
	front.Define("Svc.Handle", "key", "v")
	front.Bus.Subscribe(agent.ControlTopic, func(msg any) { worker.Bus.Publish(agent.ControlTopic, msg) })
	worker.Bus.Subscribe(agent.ResultsTopic, func(msg any) {
		frame, err := wire.Marshal(msg)
		if err != nil {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
