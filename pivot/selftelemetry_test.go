package pivot

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/plan"
	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// TestMetaTracepointQuery is the acceptance test for self-telemetry: a
// Pivot Tracing query installed over the tracer's own agent.Report
// meta-tracepoint must observe the reports the tracer sends for an
// ordinary application query.
func TestMetaTracepointQuery(t *testing.T) {
	pt := New("meta-test")
	pt.EnableSelfTelemetry()
	handle := pt.Define("Server.Handle", "bytes")

	// The meta query first, so it is woven before the app query reports.
	meta, err := pt.Install(`From r In agent.Report
		GroupBy r.host
		Select r.host, SUM(r.tuples)`)
	if err != nil {
		t.Fatal(err)
	}
	app, err := pt.Install(`From e In Server.Handle
		GroupBy e.procName
		Select e.procName, COUNT, SUM(e.bytes)`)
	if err != nil {
		t.Fatal(err)
	}

	const n = 25
	for i := 0; i < n; i++ {
		ctx := pt.NewRequest(context.Background())
		handle.Here(ctx, 10)
	}
	// Flush 1 publishes the app report and crosses agent.Report; flush 2
	// reports the meta query's own aggregation of that crossing.
	pt.Flush()
	pt.Flush()

	rows := app.Rows()
	if len(rows) != 1 || rows[0][1].Int() != n {
		t.Fatalf("app rows = %v", rows)
	}
	mrows := meta.Rows()
	// The app query emitted n tuples in flush 1. (The meta query itself
	// also reports, so later flushes would add more; after exactly two
	// flushes the sum is the app query's tuple count.)
	if len(mrows) != 1 {
		t.Fatalf("meta rows = %v", mrows)
	}
	if got := mrows[0][1].Int(); got != n {
		t.Errorf("SUM(r.tuples) = %d, want %d", got, n)
	}
}

// TestSelfTelemetryCounters checks that enabling self-telemetry populates
// hit counters, baggage serialization sizes, and the status surface.
func TestSelfTelemetryCounters(t *testing.T) {
	pt := New("counters-test")
	tel := pt.EnableSelfTelemetry()
	handle := pt.Define("Server.Handle", "bytes")

	q, err := pt.Install(`From e In Server.Handle
		GroupBy e.host Select e.host, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pt.NewRequest(context.Background())
	handle.Here(ctx, 1)
	handle.Here(ctx, 2)
	Inject(ctx) // empty baggage (no join packs tuples), but still counted
	Inject(pt.Context(context.Background()))
	pt.Flush()

	snap := tel.Snapshot()
	if got := snap.Counters["tracepoint.hits.Server.Handle"]; got != 2 {
		t.Errorf("tracepoint hits = %d, want 2", got)
	}
	if got := snap.Counters["tracepoint.weaves.Server.Handle"]; got != 1 {
		t.Errorf("tracepoint weaves = %d, want 1", got)
	}
	if got := snap.Hists["baggage.bytes"].Count; got != 2 {
		t.Errorf("baggage.bytes observations = %d, want 2 (one per Inject)", got)
	}
	if got := snap.Counters["tracepoint.hits.baggage.Serialize"]; got != 2 {
		t.Errorf("baggage.Serialize crossings = %d, want 2", got)
	}
	if got := snap.Counters["agent.reports"]; got < 1 {
		t.Errorf("agent reports = %d, want >= 1", got)
	}
	if got := snap.Counters["bus.published"]; got < 1 {
		t.Errorf("bus published = %d, want >= 1", got)
	}

	out := pt.StatusText()
	for _, want := range []string{"agents (1):", q.Name, "telemetry:", "tracepoint.hits.Server.Handle"} {
		if !strings.Contains(out, want) {
			t.Errorf("status missing %q:\n%s", want, out)
		}
	}
}

// TestBusServerStatusEndpoint exercises the TCP introspection surface:
// FetchServerStatus must return the server's own telemetry, and a status
// request relayed over the bus must come back with the frontend's status.
func TestBusServerStatusEndpoint(t *testing.T) {
	front := New("frontend")
	front.EnableSelfTelemetry()
	addr, shutdown, err := front.ServeBus("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	worker := New("worker")
	disconnect, err := worker.ConnectBus(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer disconnect()
	worker.Flush() // one heartbeat so the frontend sees the worker

	text, err := bus.FetchServerStatus(addr, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bus server", "bus.server.frames", "bus.server.conns"} {
		if !strings.Contains(text, want) {
			t.Errorf("server status missing %q:\n%s", want, text)
		}
	}

	// The worker's heartbeat travels the TCP relay asynchronously.
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := front.Status()
		if len(s.Agents) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frontend never saw the worker heartbeat")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSelfTelemetryCountsEachFactOnce: every figure in a snapshot is the
// count its component keeps, since that component was created — not a
// second copy that starts at attach — so the snapshot, the component's own
// accessors, and the heartbeat agree.
func TestSelfTelemetryCountsEachFactOnce(t *testing.T) {
	pt := New("once")
	work := pt.Define("Work.Do", "n")
	q, err := pt.Frontend.InstallNamed("QOnce",
		`From w In Work.Do GroupBy w.host Select w.host, COUNT`,
		plan.Options{Optimize: true, Safety: advice.Safety{FaultLimit: 100}})
	if err != nil {
		t.Fatal(err)
	}
	tel := pt.EnableSelfTelemetry()

	snap := tel.Snapshot()
	if got := snap.Gauges["agent.queries"]; got != 1 {
		t.Errorf("agent.queries = %d, want 1 (installed before attach)", got)
	}
	var perTopic int64
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "bus.published.") {
			perTopic += n
		}
	}
	if got := snap.Counters["bus.published"]; got != perTopic || got == 0 {
		t.Errorf("bus.published = %d, the per-topic counts add up to %d", got, perTopic)
	}

	// Panics: the tracepoint's count, its snapshot name and the program's
	// breaker all read one count each of the same recoveries.
	panicAdviceOf(pt.Registry, "QOnce")
	for i := 0; i < 4; i++ {
		work.Here(pt.NewRequest(context.Background()), int64(i))
	}
	pt.Registry.SetFailpoint(nil)
	snap = tel.Snapshot()
	if got := snap.Counters["tracepoint.panics.Work.Do"]; got != 4 || work.Panics() != 4 || q.Plan.Emit.Cost.Panics.Load() != 4 {
		t.Errorf("panics: snapshot %d, tracepoint %d, program %d; want 4 each",
			got, work.Panics(), q.Plan.Emit.Cost.Panics.Load())
	}

	// Budget evictions: counted by the programs that packed and by the
	// agent, and named once in the snapshot (agent.baggage.dropped.*).
	handle := pt.Define("Server.Handle", "route")
	reply := pt.Define("Server.Reply", "status")
	bq, err := pt.Frontend.InstallNamed("QBudget",
		`From r In Server.Reply Join h In Server.Handle On h -> r
		GroupBy h.route Select h.route, COUNT`,
		plan.Options{Optimize: true, Safety: advice.Safety{Budget: baggage.Budget{MaxTuples: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ctx := pt.NewRequest(context.Background())
		handle.Here(ctx, "a")
		handle.Here(ctx, "b")
		reply.Here(ctx, 200)
	}
	pt.Flush()
	var groups, tuples, bytes int64
	for _, prog := range bq.Plan.Programs {
		groups += prog.Cost.PackEvictedGroups.Load()
		tuples += prog.Cost.PackEvictedTuples.Load()
		bytes += prog.Cost.PackEvictedBytes.Load()
	}
	if groups == 0 {
		t.Fatal("budgeted join evicted nothing")
	}
	snap = tel.Snapshot()
	if snap.Counters["agent.baggage.dropped.groups"] != groups ||
		snap.Counters["agent.baggage.dropped.tuples"] != tuples ||
		snap.Counters["agent.baggage.dropped.bytes"] != bytes {
		t.Errorf("agent.baggage.dropped.{groups,tuples,bytes} = %d/%d/%d, programs evicted %d/%d/%d",
			snap.Counters["agent.baggage.dropped.groups"], snap.Counters["agent.baggage.dropped.tuples"],
			snap.Counters["agent.baggage.dropped.bytes"], groups, tuples, bytes)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "baggage.budget.evicted.") {
			t.Errorf("eviction counted twice: snapshot carries %s", name)
		}
	}

	// Baggage counts nothing itself: serializations are baggage.bytes'
	// count and sum, packed and refused tuples the programs' own costs.
	for _, dup := range []string{"baggage.serializations", "baggage.serialized.bytes", "baggage.tuples.packed", "baggage.budget.refused"} {
		if _, ok := snap.Counters[dup]; ok {
			t.Errorf("counted twice: snapshot carries %s", dup)
		}
	}
}

// TestTwoRuntimesShareNothing runs two runtimes in one process, each with
// self-telemetry on and driven from its own goroutine. Each counts only
// what happened in it: A's Injects are A's baggage.bytes observations and
// A's baggage.Serialize crossings, and a failpoint set in A's registry
// fires for A's advice, never for B's.
func TestTwoRuntimesShareNothing(t *testing.T) {
	a, b := New("a"), New("b")
	tel := map[*PT]*telemetry.Registry{a: a.EnableSelfTelemetry(), b: b.EnableSelfTelemetry()}
	queries := map[*PT]*Query{}
	for _, pt := range []*PT{a, b} {
		pt.Define("Work.Do", "n")
		q, err := pt.InstallNamed("QW", `From w In Work.Do GroupBy w.procName Select w.procName, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		queries[pt] = q
	}
	panicAdviceOf(a.Registry, "QW")
	var wg sync.WaitGroup
	for _, pt := range []*PT{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := pt.Registry.Lookup("Work.Do")
			for i := 0; i < 3; i++ {
				ctx := pt.NewRequest(context.Background())
				work.Here(ctx, int64(i))
				if pt == a {
					Inject(ctx)
				}
			}
			pt.Flush()
		}()
	}
	wg.Wait()

	for pt, want := range map[*PT]int64{a: 3, b: 0} {
		snap := tel[pt].Snapshot()
		if got := snap.Hists["baggage.bytes"].Count; got != want {
			t.Errorf("%s: baggage.bytes observations = %d, want %d", pt.info.ProcName, got, want)
		}
		if got := snap.Counters["tracepoint.hits.baggage.Serialize"]; got != want {
			t.Errorf("%s: baggage.Serialize crossings = %d, want %d", pt.info.ProcName, got, want)
		}
		if got := snap.Counters["tracepoint.panics.Work.Do"]; got != want {
			t.Errorf("%s: advice panics = %d, want %d", pt.info.ProcName, got, want)
		}
	}
	if rows := queries[b].Rows(); len(rows) != 1 || rows[0][1].Int() != 3 {
		t.Errorf("B's rows = %v, want one row counting 3", rows)
	}
}

// TestMergeConflictsAreCountedByTheirOwner: a slot a peer stored under
// another spec is replaced at an advice's pack and counted by the agent
// that hosts the advice; of two branches that packed one slot under two
// specs, pivot.Join drops one side and counts it in the runtime its
// context entered. Each lands once in baggage.merge.conflicts.
func TestMergeConflictsAreCountedByTheirOwner(t *testing.T) {
	pt := New("app")
	tel := pt.EnableSelfTelemetry()
	recv := pt.Define("Gateway.Receive", "tenant")
	pt.Define("Store.Write", "bytes")
	q, err := pt.Install(`From w In Store.Write Join g In First(Gateway.Receive) On g -> w
		GroupBy g.tenant Select g.tenant, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	conflicts := func() int64 { return tel.Snapshot().Counters["baggage.merge.conflicts"] }
	xy := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"x", "y"}}
	foreign := baggage.New()
	foreign.Pack(q.Name+".g", xy, tuple.Tuple{tuple.Int(1), tuple.Int(2)})
	recv.Here(Extract(pt.NewRequest(context.Background()), foreign.Serialize()), "tenant-f")
	if got := conflicts(); got != 1 {
		t.Errorf("after a pack over a foreign slot: %d conflicts, want 1", got)
	}

	ctx := pt.NewRequest(context.Background())
	l, r := Split(ctx)
	baggage.FromContext(l).Pack("s", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"x"}}, tuple.Tuple{tuple.Int(1)})
	baggage.FromContext(r).Pack("s", xy, tuple.Tuple{tuple.Int(1), tuple.Int(2)})
	Join(ctx, l, r)
	if got := conflicts(); got != 2 {
		t.Errorf("after a join of two specs: %d conflicts, want 2", got)
	}
}
