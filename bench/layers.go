package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
	"repro/internal/wire"
	"repro/pivot"
)

// This file times single layers from outside, by calling their public
// functions in a loop: the per-layer half of the benchmark. Every timing
// is the median over batches of a fixed size, run until the timer's share
// of the traced pass's budget is spent.

const (
	layerQ1     = `From e In Bench.Tracepoint GroupBy e.host Select e.host, SUM(e.v)`
	layerWide   = `From e In Bench.Tracepoint GroupBy e.v Select e.v, COUNT`
	layerSample = layerQ1 + ` Sample 0.5`
	layerHB     = `From w In Store.Write Join g In First(Gateway.Receive) On g -> w GroupBy g.tenant Select g.tenant, SUM(w.bytes), COUNT`
	// layerTimers is how many timings share the budget.
	layerTimers = 48
)

var layerProc = tracepoint.ProcInfo{Host: "h", ProcName: "p"}

// layerBench times operations against a per-timer budget.
type layerBench struct {
	budget time.Duration
	m      map[string]float64
}

// time records under name the median, over batches, of one batch's wall
// time divided by n and by unit (1 for ns, 1e3 for us, 1e6 for ms).
// prepare (may be nil) runs untimed before every batch; run performs n
// operations.
func (b *layerBench) time(name string, unit float64, n int, prepare, run func()) float64 {
	var per []float64
	deadline := time.Now().Add(b.budget)
	for len(per) < 3 || (time.Now().Before(deadline) && len(per) < 2000) {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		run()
		per = append(per, float64(time.Since(start))/float64(n)/unit)
	}
	v := median(per)
	b.m[name] = v
	return v
}

// rig is a registry, a bus and a real agent with queries woven — the
// in-process half of a worker, without a link.
type rig struct {
	reg *tracepoint.Registry
	bus *bus.Bus
	ag  *agent.Agent
	ctx context.Context // process identity + fresh baggage
}

func newRig() *rig {
	r := &rig{reg: tracepoint.NewRegistry(), bus: bus.New()}
	r.ag = agent.New(nil, layerProc, r.reg, r.bus, 0)
	r.ctx = r.request()
	return r
}

func (r *rig) request() context.Context {
	return baggage.NewContext(tracepoint.WithProc(context.Background(), layerProc), baggage.New())
}

// compile parses and compiles text under the given query name.
func (r *rig) compile(name, text string) *plan.Plan {
	q, err := query.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("bench: layer query %q: %v", text, err)) // the texts are constants of this file
	}
	q.Name = name
	p, err := plan.Compile(q, r.reg, nil, plan.Optimized)
	if err != nil {
		panic(fmt.Sprintf("bench: layer query %q: %v", text, err))
	}
	return p
}

// install compiles text and delivers it to the agent.
func (r *rig) install(name, text string) *plan.Plan {
	p := r.compile(name, text)
	r.ag.Deliver(agent.Install{QueryID: name, Programs: p.Programs})
	return p
}

// boxed returns n pre-boxed int64 values 0..n-1.
func boxed(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// recorder is an advice.Emitter keeping a copy of every working tuple.
type recorder struct{ tuples []tuple.Tuple }

func (r *recorder) EmitTuple(_ *advice.Program, w tuple.Tuple) {
	r.tuples = append(r.tuples, w.Clone())
}

// generatorSink stands in for the request function when timing the
// harness's own loop; a variable so the call is not inlined away.
var generatorSink = func(context.Context, any) {}

// layerMetrics fills m with every timing of this file. Scenario wall
// times (whole simulator runs) are taken only when sim is set, on the
// simulator workload.
func layerMetrics(m map[string]float64, cfg config, sim bool) {
	b := &layerBench{
		budget: time.Duration(cfg.seconds * layerBudgetShare / layerTimers * float64(time.Second)),
		m:      m,
	}
	groups := cfg.scaled(wideKeys, 8)
	layerTracepoint(b)
	batch, heartbeat := layerAgent(b, groups)
	layerAdvice(b, groups)
	layerBaggage(b)
	layerWire(b, batch, heartbeat)
	layerBus(b, batch, heartbeat)
	layerCombiner(b, batch)
	layerCore(b, batch)
	layerSim(b, cfg, sim)

	vals := boxed(1024)
	bg := context.Background()
	b.time("bench.generator_ns_per_request", 1, len(vals), nil, func() {
		for _, v := range vals {
			generatorSink(bg, v)
		}
	})
}

func layerTracepoint(b *layerBench) {
	const n = 4096
	val := any(int64(1))
	here := func(tp *tracepoint.Tracepoint, ctx context.Context) func() {
		return func() {
			for i := 0; i < n; i++ {
				tp.Here(ctx, val)
			}
		}
	}

	r := newRig()
	tp := r.reg.Define("Bench.Tracepoint", "v")
	b.time("tracepoint.here_disabled_ns", 1, n, nil, here(tp, r.ctx))
	r.install("q00", layerQ1)
	b.time("tracepoint.here_woven_ns", 1, n, nil, here(tp, r.ctx))
	for i := 1; i < 8; i++ {
		r.install(fmt.Sprintf("q%02d", i), layerQ1)
	}
	b.time("tracepoint.here_woven8_ns", 1, n, nil, here(tp, r.ctx))
	r.ag.Close()

	r = newRig()
	tp = r.reg.Define("Bench.Tracepoint", "v")
	r.install("bench", layerQ1)
	r.ag.EnableSpans(1<<32, 0)
	b.time("tracepoint.here_spans_on_ns", 1, n, nil, here(tp, r.ctx))
	r.ag.Close()

	for _, mode := range []struct {
		name string
		rate float64
	}{{"tracepoint.here_sampled_kept_ns", 0.5}, {"tracepoint.here_sampled_out_ns", 0}} {
		r = newRig()
		tp = r.reg.Define("Bench.Tracepoint", "v")
		r.install("bench", layerSample)
		baggage.FromContext(r.ctx).PackSampleDecision("bench", mode.rate)
		b.time(mode.name, 1, n, nil, here(tp, r.ctx))
		r.ag.Close()
	}

	for _, mode := range []struct {
		name   string
		shards int
	}{{"tracepoint.here_parallel_sharded_ns", 0}, {"tracepoint.here_parallel_unsharded_ns", 1}} {
		r = newRig()
		tp = r.reg.Define("Bench.Tracepoint", "v")
		r.ag.SetAccumulatorShards(mode.shards)
		r.install("bench", layerQ1)
		procs := runtime.GOMAXPROCS(0)
		b.time(mode.name, 1, n*procs, nil, func() {
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					here(tp, r.request())()
				}()
			}
			wg.Wait()
		})
		r.ag.Close()
	}

	// The happened-before pair: Gateway.Receive packs into fresh baggage,
	// Store.Write unpacks, joins and emits.
	r = newRig()
	recv := r.reg.Define("Gateway.Receive", "tenant")
	write := r.reg.Define("Store.Write", "bytes")
	r.install("hb", layerHB)
	tenant, size := any("tenant-3"), any(int64(2048))
	ctxs := make([]context.Context, 1024)
	fresh := func() {
		for i := range ctxs {
			ctxs[i] = r.request()
		}
	}
	b.time("tracepoint.here_pack_ns", 1, len(ctxs), fresh, func() {
		for _, ctx := range ctxs {
			recv.Here(ctx, tenant)
		}
	})
	b.time("tracepoint.here_hbjoin_ns", 1, len(ctxs), func() {
		fresh()
		for _, ctx := range ctxs {
			recv.Here(ctx, tenant)
		}
	}, func() {
		for _, ctx := range ctxs {
			write.Here(ctx, size)
		}
	})
	r.ag.Close()

	r = newRig()
	r.reg.Define("Bench.Tracepoint", "v")
	adv := &advice.Advice{Prog: r.compile("bench", layerQ1).Programs[0]}
	b.time("tracepoint.weave_us", 1e3, 64, nil, func() {
		for i := 0; i < 64; i++ {
			// Weave then unweave, as one reconfiguration; neither fails
			// for a defined tracepoint.
			_ = r.reg.Weave("Bench.Tracepoint", adv)
			r.reg.Unweave("Bench.Tracepoint", adv)
		}
	})
	r.ag.Close()
}

// layerAgent times the agent's emit and flush paths and returns the
// frames one wide flush publishes — a groups-row ReportBatch and a
// Heartbeat — for the wire, bus, combiner and core timings to reuse.
func layerAgent(b *layerBench, groups int) (agent.ReportBatch, agent.Heartbeat) {
	r := newRig()
	tp := r.reg.Define("Bench.Tracepoint", "v")
	p := r.install("wide", layerWide)
	var (
		batch     agent.ReportBatch
		heartbeat agent.Heartbeat
	)
	r.bus.Subscribe(agent.ResultsTopic, func(msg any) { batch, _ = msg.(agent.ReportBatch) })
	r.bus.Subscribe(agent.HealthTopic, func(msg any) { heartbeat, _ = msg.(agent.Heartbeat) })
	keys := boxed(groups)
	fill := func() {
		for _, k := range keys {
			tp.Here(r.ctx, k)
		}
	}
	ms := b.time("agent.flush_ms", 1e6, 1, fill, r.ag.Flush)
	b.m["agent.flush_ns_per_row"] = ms * 1e6 / float64(groups)
	wideBatch, wideHeartbeat := batch, heartbeat // the frames of a full-width flush, before later flushes replace them

	// One working tuple as the advice hands it to the agent.
	rec := &recorder{}
	(&advice.Advice{Prog: p.Programs[0], Emitter: rec}).Invoke(r.ctx, fullTuple(tuple.Int(7)))
	w := rec.tuples[0]
	const n = 4096
	b.time("agent.emit_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			r.ag.EmitTuple(p.Programs[0], w)
		}
	})
	r.ag.Flush()

	r.reg.Define("Gateway.Receive", "tenant")
	r.reg.Define("Store.Write", "bytes")
	install := agent.Install{QueryID: "hb", Programs: r.compile("hb", layerHB).Programs}
	b.time("agent.deliver_install_us", 1e3, 1,
		func() { r.ag.Deliver(agent.Uninstall{QueryID: "hb"}) },
		func() { r.ag.Deliver(install) })
	r.ag.Close()
	return wideBatch, wideHeartbeat
}

// fullTuple is the tuple a Bench.Tracepoint crossing hands its advice:
// the default exports, then v.
func fullTuple(v tuple.Value) tuple.Tuple {
	return tuple.Tuple{tuple.String(layerProc.Host), tuple.Int(0), tuple.String(layerProc.ProcName),
		tuple.Int(0), tuple.String("Bench.Tracepoint"), v}
}

func layerAdvice(b *layerBench, groups int) {
	r := newRig()
	r.reg.Define("Bench.Tracepoint", "v")
	p := r.install("wide", layerWide)
	prog := p.Programs[0]
	const n = 4096
	full := fullTuple(tuple.Int(7))
	adv := &advice.Advice{Prog: prog, Emitter: r.ag}
	b.time("advice.invoke_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			adv.Invoke(r.ctx, full)
		}
	})

	// Working tuples with distinct group keys, as the advice emits them.
	rec := &recorder{}
	recAdv := &advice.Advice{Prog: prog, Emitter: rec}
	for i := 0; i < groups; i++ {
		recAdv.Invoke(r.ctx, fullTuple(tuple.Int(int64(i))))
	}
	acc := advice.NewAccumulator(prog.Emit)
	acc.Add(rec.tuples[0])
	b.time("advice.fold_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			acc.Add(rec.tuples[0])
		}
	})
	b.time("advice.fold_new_group_ns", 1, groups, acc.Reset, func() {
		for _, w := range rec.tuples {
			acc.Add(w)
		}
	})
	sharded := advice.NewShardedAccumulator(prog.Emit, 0)
	b.time("advice.drain_ns_per_group", 1, groups, func() {
		for _, w := range rec.tuples {
			sharded.Add(w)
		}
	}, func() { sharded.Drain() })
	r.ag.Close()
}

func layerBaggage(b *layerBench) {
	const n = 1024
	pt := pivot.New("bench")
	bg := context.Background()
	b.time("baggage.new_request_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			pt.NewRequest(bg)
		}
	})

	// Pack exactly what the happened-before query's gateway advice packs.
	r := newRig()
	r.reg.Define("Gateway.Receive", "tenant")
	r.reg.Define("Store.Write", "bytes")
	var pack *advice.PackOp
	for _, prog := range r.compile("hb", layerHB).Programs {
		if prog.Pack != nil {
			pack = prog.Pack
		}
	}
	r.ag.Close()
	t := tuple.Tuple{tuple.String("tenant-3")}
	bags := make([]*baggage.Baggage, n)
	fresh := func() {
		for i := range bags {
			bags[i] = baggage.New()
		}
	}
	packed := func() {
		fresh()
		for _, bag := range bags {
			bag.Pack(pack.Slot, pack.Spec, t)
		}
	}
	b.time("baggage.pack_ns", 1, n, fresh, func() {
		for _, bag := range bags {
			bag.Pack(pack.Slot, pack.Spec, t)
		}
	})
	b.time("baggage.unpack_ns", 1, n, packed, func() {
		for _, bag := range bags {
			bag.Unpack(pack.Slot)
		}
	})
	var wireBytes []byte
	b.time("baggage.serialize_ns", 1, n, packed, func() {
		for _, bag := range bags {
			wireBytes = bag.Serialize()
		}
	})
	// Deserialize is lazy; the Unpack forces the decode a receiver pays.
	b.time("baggage.deserialize_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			baggage.Deserialize(wireBytes).Unpack(pack.Slot)
		}
	})
	b.time("baggage.split_ns", 1, n, packed, func() {
		for _, bag := range bags {
			bag.Split()
		}
	})
	halves := make([][2]*baggage.Baggage, n)
	b.time("baggage.join_ns", 1, n, func() {
		packed()
		for i, bag := range bags {
			halves[i][0], halves[i][1] = bag.Split()
		}
	}, func() {
		for _, h := range halves {
			baggage.Join(h[0], h[1])
		}
	})
}

func layerWire(b *layerBench, batch agent.ReportBatch, heartbeat agent.Heartbeat) {
	rows := float64(len(batch.Reports[0].Groups))
	mustMarshal := func(msg any) []byte {
		p, err := wire.Marshal(msg)
		if err != nil {
			panic(fmt.Sprintf("bench: wire.Marshal(%T): %v", msg, err)) // every message here is a bus message type
		}
		return p
	}
	report := mustMarshal(batch)
	b.m["wire.report_bytes_per_row"] = float64(len(report)) / rows
	b.time("wire.marshal_report_ns_per_row", rows, 1, nil, func() { mustMarshal(batch) })
	b.time("wire.unmarshal_report_ns_per_row", rows, 1, nil, func() { _, _ = wire.Unmarshal(report) })

	hbBytes := mustMarshal(heartbeat)
	b.m["wire.heartbeat_bytes"] = float64(len(hbBytes))
	const n = 256
	b.time("wire.marshal_heartbeat_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			mustMarshal(heartbeat)
		}
	})
	b.time("wire.unmarshal_heartbeat_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = wire.Unmarshal(hbBytes)
		}
	})

	r := newRig()
	r.reg.Define("Gateway.Receive", "tenant")
	r.reg.Define("Store.Write", "bytes")
	install := agent.Install{QueryID: "hb", Programs: r.compile("hb", layerHB).Programs, TTL: agent.DefaultLease}
	r.ag.Close()
	instBytes := mustMarshal(install)
	b.time("wire.marshal_install_us", 1e3, n, nil, func() {
		for i := 0; i < n; i++ {
			mustMarshal(install)
		}
	})
	b.time("wire.unmarshal_install_us", 1e3, n, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = wire.Unmarshal(instBytes)
		}
	})
}

func layerBus(b *layerBench, batch agent.ReportBatch, heartbeat agent.Heartbeat) {
	const n = 4096
	local := bus.New()
	local.Subscribe("bench", func(any) {})
	b.time("bus.publish_inproc_ns", 1, n, nil, func() {
		for i := 0; i < n; i++ {
			local.Publish("bench", heartbeat)
		}
	})

	// Two links through a real server on loopback: A sends pings and bulk
	// frames, B answers pings and counts bulk frames.
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		return // no loopback listener: the TCP timings stay 0
	}
	defer srv.Close()
	busA, busB := bus.New(), bus.New()
	pong, bulk := make(chan struct{}, 1), make(chan struct{}, 64)
	busA.Subscribe("bench.pong", func(any) { pong <- struct{}{} })
	busB.Subscribe("bench.ping", func(msg any) { busB.Publish("bench.pong", msg) })
	busB.Subscribe("bench.bulk", func(any) { bulk <- struct{}{} })
	linkA, err := bus.Connect(busA, srv.Addr(), wire.BusCodec{}, []string{"bench.ping", "bench.bulk"}, []string{"bench.pong"})
	if err != nil {
		return
	}
	defer linkA.Close()
	linkB, err := bus.Connect(busB, srv.Addr(), wire.BusCodec{}, []string{"bench.pong"}, []string{"bench.ping", "bench.bulk"})
	if err != nil {
		return
	}
	defer linkB.Close()
	conns := srv.Telemetry().Gauge("bus.server.conns")
	if !poll(func() bool { return conns.Load() == 2 }) {
		return
	}
	const pings = 64
	b.time("bus.tcp_small_rtt_us", 1e3, pings, nil, func() {
		for i := 0; i < pings; i++ {
			busA.Publish("bench.ping", heartbeat)
			<-pong
		}
	})
	payload, err := wire.Marshal(batch)
	if err != nil {
		return
	}
	const frames = 16
	perByte := b.time("bus.tcp_large_mb_per_s", 1, frames*len(payload), nil, func() {
		go func() {
			for i := 0; i < frames; i++ {
				busA.Publish("bench.bulk", batch)
			}
		}()
		for i := 0; i < frames; i++ {
			<-bulk
		}
	})
	b.m["bus.tcp_large_mb_per_s"] = 1e3 / perByte // ns per byte -> MB/s
}

func layerCombiner(b *layerBench, batch agent.ReportBatch) {
	rows := float64(len(batch.Reports[0].Groups))
	local := bus.New()
	comb := combiner.New(nil, "ctier", "bench", local, combiner.Config{Subscribe: []string{"bench.part"}})
	defer comb.Close()
	// A mid combiner sees each key from two workers per tick: the first
	// report inserts (clones), the second merges.
	twice := func() {
		local.Publish("bench.part", batch)
		local.Publish("bench.part", batch)
	}
	b.time("combiner.merge_ns_per_row", 2*rows, 1, func() { comb.DrainPending() }, twice)
	b.time("combiner.flush_ms", 1e6, 1, func() { comb.DrainPending(); twice() }, comb.Flush)
}

func layerCore(b *layerBench, batch agent.ReportBatch) {
	rows := float64(len(batch.Reports[0].Groups))
	fe := pivot.New("frontend")
	fe.Define("Bench.Tracepoint", "v")
	q, err := fe.InstallNamed("wide", layerWide)
	if err != nil {
		panic(fmt.Sprintf("bench: install %q: %v", layerWide, err))
	}
	fe.Bus.Publish(agent.ResultsTopic, batch) // first sight inserts; the timed merges fold
	b.time("core.merge_ns_per_row", rows, 1, nil, func() { fe.Bus.Publish(agent.ResultsTopic, batch) })
	b.time("core.rows_ms", 1e6, 1, nil, func() { q.Rows() })

	fe.Define("Gateway.Receive", "tenant")
	fe.Define("Store.Write", "bytes")
	var probe *pivot.Query
	b.time("core.install_ms", 1e6, 1, func() {
		if probe != nil {
			probe.Uninstall()
		}
	}, func() { probe, _ = fe.InstallNamed("hb", layerHB) })
	probe.Uninstall()
	b.time("core.uninstall_ms", 1e6, 1, func() { probe, _ = fe.InstallNamed("hb", layerHB) }, func() { probe.Uninstall() })

	b.time("query.parse_us", 1e3, 64, nil, func() {
		for i := 0; i < 64; i++ {
			_, _ = query.Parse(layerHB)
		}
	})
	var parsed *query.Query
	b.time("plan.compile_us", 1e3, 1, func() {
		parsed, _ = query.Parse(layerHB)
		parsed.Name = "hb"
	}, func() { _, _ = plan.Compile(parsed, fe.Registry, nil, plan.Optimized) })
}

func layerSim(b *layerBench, cfg config, sim bool) {
	const sleeps = 4096
	b.time("simtime.sleep_wake_ns", 1, sleeps, nil, func() {
		env := simtime.NewEnv()
		env.Run(func() {
			for i := 0; i < sleeps; i++ {
				env.Sleep(time.Microsecond)
			}
		})
	})
	// 64 hosts on a racked topology sending flows large enough to share
	// uplinks, as in the repo's BenchmarkNetsimEventQueue.
	const hosts, perHost = 64, 16
	b.time("netsim.flow_us", 1e3, hosts*perHost, nil, func() {
		env := simtime.NewEnv()
		env.Run(func() {
			net := netsim.New(env)
			topo := netsim.BuildTopology(net, netsim.TopologyConfig{Racks: 4, HostsPerRack: 16, RackUplink: 4 * netsim.Gbit})
			wg := env.NewWaitGroup()
			for i := 0; i < hosts; i++ {
				i := i
				wg.Add(1)
				env.Go(func() {
					defer wg.Done()
					src, dst := topo.Host(i), topo.Host((i+17)%hosts)
					for k := 0; k < perHost; k++ {
						src.Send(dst, 64e3+float64((i+k)%7)*16e3)
					}
				})
			}
			wg.Wait()
		})
	})
	if !sim {
		return
	}
	for _, id := range []string{"herd", "multi-tenant-storm", "limplock"} {
		id := id
		b.time("scenario."+id+".wall_s", 1e9, 1, nil, func() { runScenario(id, cfg.seed, nil) })
	}
}
