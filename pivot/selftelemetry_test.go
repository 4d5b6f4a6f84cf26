package pivot

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/plan"
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
// hit counters, baggage serialization volume, and the status surface.
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
	pt.Flush()

	snap := tel.Snapshot()
	if got := snap.Counters["tracepoint.hits.Server.Handle"]; got != 2 {
		t.Errorf("tracepoint hits = %d, want 2", got)
	}
	if got := snap.Counters["tracepoint.weaves.Server.Handle"]; got != 1 {
		t.Errorf("tracepoint weaves = %d, want 1", got)
	}
	if got := snap.Counters["baggage.serializations"]; got < 1 {
		t.Errorf("baggage serializations = %d, want >= 1", got)
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
	advice.SetFailpoint(func(p *advice.Program, _ tuple.Tuple) {
		if p.QueryID == "QOnce" {
			panic("injected")
		}
	})
	for i := 0; i < 4; i++ {
		work.Here(pt.NewRequest(context.Background()), int64(i))
	}
	advice.SetFailpoint(nil)
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
}
