package pivot

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Safety-valve chaos suite: the governance layer protecting the traced
// application from its own tracer. A panicking query is quarantined
// without disturbing the workload; a frontend that dies stops renewing
// its leases and every agent sheds its queries within two TTLs; a query
// that exhausts its baggage budget reports exactly which groups it lost.
// Deterministic under -race -count=N.

// panicAdviceOf makes every advice of queryID woven in reg panic.
func panicAdviceOf(reg *tracepoint.Registry, queryID string) {
	reg.SetFailpoint(func(a tracepoint.Advice, _ tuple.Tuple) {
		if a.(*advice.Advice).Prog.QueryID == queryID {
			panic("injected advice bug")
		}
	})
}

func TestSafetyPanickingAdviceIsQuarantined(t *testing.T) {
	pt := New("app")
	tel := pt.EnableSelfTelemetry()
	tp := pt.Define("Work.Do", "n")

	q, err := pt.Frontend.InstallNamed("QP",
		`From w In Work.Do GroupBy w.host Select w.host, COUNT`,
		plan.Options{Optimize: true, Safety: advice.Safety{FaultLimit: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Enabled() {
		t.Fatal("advice not woven")
	}

	panicAdviceOf(pt.Registry, "QP")

	// The workload must be undisturbed: every crossing returns normally
	// whether the advice panics, is quarantined, or is already unwoven.
	for i := 0; i < 10; i++ {
		tp.Here(pt.NewRequest(context.Background()), int64(i))
	}

	notices := q.Quarantines()
	if len(notices) != 1 {
		t.Fatalf("quarantine notices = %d, want 1", len(notices))
	}
	n := notices[0]
	if n.QueryID != "QP" || n.Tracepoint != "Work.Do" || !strings.Contains(n.Reason, "3 advice panics") {
		t.Fatalf("notice = %+v", n)
	}
	if !q.Partial() {
		t.Fatal("quarantined query not flagged partial")
	}
	if tp.Enabled() {
		t.Fatal("quarantined advice still woven")
	}
	// Quarantined within FaultLimit fires: the breaker tripped at the
	// third panic and every later crossing found the advice inert.
	if f := q.Plan.Emit.Cost.Panics.Load(); f != 3 {
		t.Fatalf("program faults = %d, want exactly FaultLimit=3", f)
	}

	snap := tel.Snapshot()
	if snap.Counters["agent.quarantines"] != 1 || snap.Counters["core.quarantines"] != 1 {
		t.Fatalf("quarantine telemetry = agent:%d core:%d",
			snap.Counters["agent.quarantines"], snap.Counters["core.quarantines"])
	}
	if snap.Counters["tracepoint.panics.Work.Do"] != 3 {
		t.Fatalf("tracepoint panic meter = %d, want 3", snap.Counters["tracepoint.panics.Work.Do"])
	}

	// The status surface reports the quarantine against the query.
	var qs string
	for _, s := range pt.Status().Queries {
		if s.Name == "QP" {
			qs = fmt.Sprintf("quarant=%d", s.Quarantines)
		}
	}
	if qs != "quarant=1" {
		t.Fatalf("status query quarantines = %q, want quarant=1", qs)
	}
}

// TestSafetyKilledFrontendLeaseExpiry kills the frontend's bus link mid-query
// (no reconnect — the frontend is "dead") and asserts every agent sheds
// the orphaned query within two lease TTLs.
func TestSafetyKilledFrontendLeaseExpiry(t *testing.T) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The frontend dials through the injector so the test can sever its
	// link at a chosen moment; Reconnect:false models a dead process.
	inj := faultinject.New(faultinject.Faults{Seed: 11})
	frontend := New("frontend")
	frontend.Define("Work.Do", "n")
	feDisconnect, err := frontend.ConnectFrontend(srv.Addr(), BusOptions{
		Reconnect: false,
		Dial:      inj.Dialer(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer feDisconnect()

	worker := New("worker")
	tp := worker.Define("Work.Do", "n")
	wkDisconnect, err := worker.ConnectBusWith(srv.Addr(), chaosBusOptions(12, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer wkDisconnect()

	const ttl = 1 * time.Second
	if _, err := frontend.Frontend.InstallNamed("QL",
		`From w In Work.Do GroupBy w.host Select w.host, COUNT`,
		plan.Options{Optimize: true, Lease: ttl}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "install to reach the worker", func() bool {
		return worker.Agent.Installed("QL") && tp.Enabled()
	})

	// Healthy: the frontend renews well inside the TTL and the worker's
	// flushes (which check expiry) keep finding a live lease.
	stopRenew := frontend.StartReporting(100 * time.Millisecond)
	defer stopRenew()
	stopFlush := worker.StartReporting(100 * time.Millisecond)
	defer stopFlush()
	time.Sleep(2 * ttl)
	if !worker.Agent.Installed("QL") {
		t.Fatal("query expired while the frontend was renewing")
	}

	// The frontend dies: its link is cut and never redialed. Renewals
	// stop; within two TTLs the worker must uninstall the orphan.
	killed := time.Now()
	inj.CutAll()
	waitFor(t, "orphaned query to be shed", func() bool {
		return !worker.Agent.Installed("QL")
	})
	if took := time.Since(killed); took > 2*ttl {
		t.Fatalf("lease expiry took %v, want <= 2 TTLs (%v)", took, 2*ttl)
	}
	if tp.Enabled() {
		t.Fatal("expired query's advice still woven")
	}
	if st := worker.Agent.Stats(); st.LeasesExpired != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", st.LeasesExpired)
	}
}

// TestSafetyQuarantineNoticeCrossesBus runs the panicking-advice scenario with
// the faulty process connected as a TCP worker and asserts the
// pt.quarantine notice reaches the frontend over the bus — the worker
// trips the breaker locally, but the operator watches the frontend.
func TestSafetyQuarantineNoticeCrossesBus(t *testing.T) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	frontend := New("frontend")
	frontend.Define("Work.Do", "n")
	feDisconnect, err := frontend.ConnectFrontend(srv.Addr(), DefaultBusOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer feDisconnect()

	worker := New("worker")
	tp := worker.Define("Work.Do", "n")
	wkDisconnect, err := worker.ConnectBus(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wkDisconnect()

	q, err := frontend.Frontend.InstallNamed("QP",
		`From w In Work.Do GroupBy w.host Select w.host, COUNT`,
		plan.Options{Optimize: true, Safety: advice.Safety{FaultLimit: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "install to reach the worker", func() bool {
		return worker.Agent.Installed("QP") && tp.Enabled()
	})

	panicAdviceOf(worker.Registry, "QP")

	for i := 0; i < 5; i++ {
		tp.Here(worker.NewRequest(context.Background()), int64(i))
	}
	if st := worker.Agent.Stats(); st.Quarantines != 1 {
		t.Fatalf("worker quarantines = %d, want 1", st.Quarantines)
	}
	if tp.Enabled() {
		t.Fatal("quarantined advice still woven on the worker")
	}

	// The notice must cross the TCP bus to the frontend's query handle
	// and status surface.
	waitFor(t, "quarantine notice to reach the frontend", func() bool {
		return len(q.Quarantines()) == 1
	})
	n := q.Quarantines()[0]
	if n.QueryID != "QP" || n.Tracepoint != "Work.Do" || n.ProcName != "worker" {
		t.Fatalf("notice = %+v", n)
	}
	if !q.Partial() {
		t.Fatal("quarantined query not flagged partial at the frontend")
	}
	qs := -1
	for _, s := range frontend.Status().Queries {
		if s.Name == "QP" {
			qs = s.Quarantines
		}
	}
	if qs != 1 {
		t.Fatalf("frontend status quarantines = %d, want 1", qs)
	}
}

// TestSafetyBudgetExhaustionAccounted runs a happened-before join whose source
// groups overflow a tiny baggage budget, and reconciles: every group is
// either reported with an exact aggregate or counted dropped — nothing
// vanishes, nothing is partially merged.
func TestSafetyBudgetExhaustionAccounted(t *testing.T) {
	pt := New("app")
	src := pt.Define("Src.Emit", "key", "val")
	sink := pt.Define("Sink.Done")

	const total, budget = 10, 4
	q, err := pt.Frontend.InstallNamed("QB",
		`From b In Sink.Done
		 Join a In Src.Emit On a -> b
		 GroupBy a.key Select a.key, SUM(a.val)`,
		plan.Options{Optimize: true, Safety: advice.Safety{
			Budget: baggage.Budget{MaxTuples: budget},
		}})
	if err != nil {
		t.Fatal(err)
	}

	ctx := pt.NewRequest(context.Background())
	want := map[string]int64{}
	for i := 0; i < total; i++ {
		key := fmt.Sprintf("k%02d", i)
		val := int64(10 + i)
		want[key] = val
		src.Here(ctx, key, val)
	}
	sink.Here(ctx)
	pt.Flush()

	rows := q.Rows()
	if len(rows) != budget {
		t.Fatalf("reported rows = %d, want the %d in budget", len(rows), budget)
	}
	for _, r := range rows {
		key := r[0].Str()
		wantSum, ok := want[key]
		if !ok {
			t.Fatalf("reported group %q was never produced", key)
		}
		// Byte-exact on the reported subset: a surviving group carries
		// its full aggregate, never a truncated portion.
		if got := r[1].Int(); got != wantSum {
			t.Fatalf("SUM(%s) = %d, want %d", key, got, wantSum)
		}
	}
	if dropped := q.DroppedGroups(); len(rows)+dropped != total {
		t.Fatalf("reported %d + dropped %d != %d produced groups", len(rows), dropped, total)
	}
	if !q.Partial() {
		t.Fatal("truncated query not flagged partial")
	}
	if st := pt.Agent.Stats(); st.BaggageGroupsDropped != int64(total-budget) || st.BaggageBytesDropped <= 0 {
		t.Fatalf("agent baggage drop stats = %+v", st)
	}

	// The status tables roll the accounting up.
	text := pt.StatusText()
	if !strings.Contains(text, "dropped") || !strings.Contains(text, "bagdrop") {
		t.Fatalf("status text missing governance columns:\n%s", text)
	}
	var found bool
	for _, s := range pt.Status().Queries {
		if s.Name == "QB" && s.DroppedGroups == total-budget {
			found = true
		}
	}
	if !found {
		t.Fatalf("status DroppedGroups != %d:\n%s", total-budget, text)
	}
}

// TestSafetyLeaseRenewalKeepsInProcessQueryAlive covers the benign path: an
// embedded runtime whose StartReporting tick both renews and flushes
// never sheds its own queries.
func TestSafetyLeaseRenewalKeepsInProcessQueryAlive(t *testing.T) {
	pt := New("app")
	pt.Define("Work.Do", "n")
	q, err := pt.Frontend.InstallNamed("QK",
		`From w In Work.Do GroupBy w.host Select w.host, COUNT`,
		plan.Options{Optimize: true, Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if q.Lease() != 200*time.Millisecond {
		t.Fatalf("Lease = %v", q.Lease())
	}
	stop := pt.StartReporting(50 * time.Millisecond)
	defer stop()
	time.Sleep(600 * time.Millisecond)
	if !pt.Agent.Installed("QK") {
		t.Fatal("renewed in-process query expired")
	}
	// Uninstall still works with leases in play.
	q.Uninstall()
	if pt.Agent.Installed("QK") {
		t.Fatal("uninstall did not remove the query")
	}
}

// TestSafetyHostileBaggageCannotQuarantineAQuery: baggage whose FIRST slot
// holds a tuple of the wrong width — here none, for a one-field spec — is
// refused by the decoder, and an unpack that found a slot of another
// width would treat it as empty. Either way the advice joining it never
// panics: after more such requests than the fault limit, the query is
// neither quarantined nor deaf to the next good request.
func TestSafetyHostileBaggageCannotQuarantineAQuery(t *testing.T) {
	pt := New("app")
	recv := pt.Define("Gateway.Receive", "tenant")
	write := pt.Define("Store.Write", "bytes")
	q, err := pt.Install(`From w In Store.Write
Join g In First(Gateway.Receive) On g -> w
GroupBy g.tenant
Select g.tenant, SUM(w.bytes), COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	stCtx := pt.Context(context.Background())
	hostile := baggage.New()
	hostile.Pack("Q1.g", baggage.SetSpec{Kind: baggage.First, Fields: tuple.Schema{"tenant"}}, tuple.Tuple{})
	wire := hostile.Serialize()
	for i := 0; i < advice.DefaultFaultLimit; i++ {
		write.Here(Extract(stCtx, wire), int64(1))
	}
	ctx := pt.NewRequest(context.Background())
	recv.Here(ctx, "tenant-1")
	write.Here(Extract(stCtx, Inject(ctx)), int64(512))
	pt.Flush()

	if n := write.Panics(); n != 0 {
		t.Errorf("advice panicked %d times on hostile baggage", n)
	}
	if n := q.Quarantines(); len(n) != 0 {
		t.Errorf("hostile baggage quarantined the query: %+v", n)
	}
	rows := q.Rows()
	if len(rows) != 1 || rows[0][0].Str() != "tenant-1" || rows[0][1].Int() != 512 || rows[0][2].Int() != 1 {
		t.Errorf("rows = %v, want the good request's [tenant-1 512 1]", rows)
	}
}

// TestSafetyForeignSlotSpecIsReplacedAtPack: baggage from a peer that holds
// the query's slot under another spec — ALL(x, y) where the plan packs
// FIRST(tenant) — is not panicked on where the query packs: the packer's
// spec wins and replaces what the peer stored. After more such requests
// than the fault limit the query is neither quarantined nor deaf, and each
// of those requests joins its own pack.
func TestSafetyForeignSlotSpecIsReplacedAtPack(t *testing.T) {
	pt := New("app")
	recv := pt.Define("Gateway.Receive", "tenant")
	write := pt.Define("Store.Write", "bytes")
	q, err := pt.Install(`From w In Store.Write
Join g In First(Gateway.Receive) On g -> w
GroupBy g.tenant
Select g.tenant, SUM(w.bytes), COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	foreign := baggage.New()
	foreign.Pack(q.Name+".g", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"x", "y"}}, tuple.Tuple{tuple.Int(1), tuple.Int(2)})
	wire := foreign.Serialize()
	stCtx := pt.Context(context.Background())
	for i := 0; i < advice.DefaultFaultLimit; i++ {
		ctx := Extract(pt.NewRequest(context.Background()), wire)
		recv.Here(ctx, "tenant-f")
		write.Here(Extract(stCtx, Inject(ctx)), int64(1))
	}
	ctx := pt.NewRequest(context.Background())
	recv.Here(ctx, "tenant-1")
	write.Here(Extract(stCtx, Inject(ctx)), int64(512))
	pt.Flush()

	if n := recv.Panics() + write.Panics(); n != 0 {
		t.Errorf("advice panicked %d times on a foreign slot spec", n)
	}
	if n := q.Quarantines(); len(n) != 0 {
		t.Errorf("a foreign slot spec quarantined the query: %+v", n)
	}
	rows := q.Rows()
	if len(rows) != 2 || fmt.Sprint(rows[0]) != fmt.Sprint(tuple.Tuple{tuple.String("tenant-1"), tuple.Int(512), tuple.Int(1)}) ||
		fmt.Sprint(rows[1]) != fmt.Sprint(tuple.Tuple{tuple.String("tenant-f"), tuple.Int(advice.DefaultFaultLimit), tuple.Int(advice.DefaultFaultLimit)}) {
		t.Errorf("rows = %v, want [tenant-1 512 1] and [tenant-f %d %d]", rows, advice.DefaultFaultLimit, advice.DefaultFaultLimit)
	}
}

// TestSafetyForeignTraceSlotSpecIsReplaced: span capture runs at the Here
// boundary, outside the recover that guards advice, so a panic in its pack
// would reach the application. Baggage whose span-frontier slot a peer
// filled under another spec is replaced by the frontier of the crossing
// that meets it: the crossings record their spans, in one trace, and the
// replacement is counted once in the runtime's baggage.merge.conflicts.
func TestSafetyForeignTraceSlotSpecIsReplaced(t *testing.T) {
	pt := New("app")
	tel := pt.EnableSelfTelemetry()
	traces := pt.EnableSpans(0)
	tp := pt.Define("Work.Do", "n")
	foreign := baggage.New()
	foreign.Pack(baggage.TraceSlot, baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"x"}}, tuple.Tuple{tuple.Int(1)})
	ctx := Extract(pt.Context(context.Background()), foreign.Serialize())
	tp.Here(ctx, 1)
	tp.Here(ctx, 2)
	pt.Flush()
	ids := traces.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("%d traces, want one", len(ids))
	}
	if tr := traces.Trace(ids[0]); len(tr.Nodes) != 2 || tr.Synthetic || tr.Root != tr.Nodes[0] {
		t.Errorf("trace holds %d spans (synthetic root %v), want both crossings', the first the root", len(tr.Nodes), tr.Synthetic)
	}
	if got := tel.Snapshot().Counters["baggage.merge.conflicts"]; got != 1 {
		t.Errorf("baggage.merge.conflicts = %d, want 1 for the replaced frontier slot", got)
	}
}

// TestSafetyFrontendRawCapIsPartial: a raw query's frontend keeps at most
// MaxRaws rows. Nine rows flushed one per interval stay under the agent's
// cap every time, so the frontend is the tier that evicts: its result is
// partial, and EXPLAIN ANALYZE says how many rows it dropped.
func TestSafetyFrontendRawCapIsPartial(t *testing.T) {
	pt := New("app")
	tp := pt.Define("Work.Do", "n")
	q, err := pt.Frontend.InstallNamed("QR", `From w In Work.Do Select w.n`,
		plan.Options{Optimize: true, Limits: advice.Limits{MaxRaws: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		tp.Here(pt.NewRequest(context.Background()), int64(i))
		pt.Flush()
	}
	if rows := q.Rows(); len(rows) != 4 {
		t.Fatalf("%d rows, want the cap's 4", len(rows))
	}
	if !q.Partial() {
		t.Error("the frontend evicted 5 rows, but the result is not partial")
	}
	if out := q.ExplainAnalyze(); !strings.Contains(out, "raws-dropped=5 groups-overflowed=0") {
		t.Errorf("EXPLAIN ANALYZE does not count the 5 evicted rows:\n%s", out)
	}
}
