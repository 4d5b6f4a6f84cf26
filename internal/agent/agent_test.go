package agent

import (
	"context"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// q1Program compiles by hand a Q1-style program over tracepoint "Tp".
func q1Program() *advice.Program {
	return &advice.Program{
		QueryID:       "Q",
		Tracepoint:    "Tp",
		Observe:       []int{0, 5},
		ObserveFields: tuple.Schema{"e.host", "e.v"},
		Emit: &advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: 1, Fn: agg.Sum}},
			GroupBy: []int{0},
			Schema:  tuple.Schema{"host", "SUM(v)"},
		},
	}
}

func info(host string) tracepoint.ProcInfo {
	return tracepoint.ProcInfo{Host: host, ProcName: "p", ProcID: 1}
}

func request(host string) context.Context {
	ctx := tracepoint.WithProc(context.Background(), info(host))
	return baggage.NewContext(ctx, baggage.New())
}

// resultReports returns the reports of a ResultsTopic message.
func resultReports(msg any) []Report {
	if m, ok := msg.(ReportBatch); ok {
		return m.Reports
	}
	return nil
}

func TestAgentWeavesOnInstallAndReports(t *testing.T) {
	env := simtime.NewEnv()
	var reports []Report
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		New(env, info("h1"), reg, b, time.Second)
		b.Subscribe(ResultsTopic, func(msg any) { reports = append(reports, resultReports(msg)...) })

		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		if !tp.Enabled() {
			t.Error("tracepoint not woven")
		}
		tp.Here(request("h1"), 10)
		tp.Here(request("h1"), 5)
		env.Sleep(1500 * time.Millisecond) // one reporting interval
	})
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	r := reports[0]
	if r.QueryID != "Q" || r.Host != "h1" || len(r.Groups) != 1 {
		t.Fatalf("report = %+v", r)
	}
	if got := r.Groups[0].States[0].Result(); got.Int() != 15 {
		t.Fatalf("partial sum = %v", got)
	}
}

func TestAgentSkipsUnknownTracepoints(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry() // no "Tp" here
		a := New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		a.Flush() // nothing to report, no panic
	})
}

func TestAgentWeavesWhenTracepointDefinedLater(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		tp := reg.Define("Tp", "v") // defined after installation
		if !tp.Enabled() {
			t.Error("standing query not woven into late-defined tracepoint")
		}
	})
}

func TestAgentUninstallUnweaves(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		b.Publish(ControlTopic, Uninstall{QueryID: "Q"})
		if tp.Enabled() {
			t.Error("tracepoint still woven after uninstall")
		}
	})
}

func TestAgentEmptyIntervalsProduceNoReports(t *testing.T) {
	env := simtime.NewEnv()
	reports := 0
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		New(env, info("h1"), reg, b, time.Second)
		b.Subscribe(ResultsTopic, func(any) { reports++ })
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		env.Sleep(5 * time.Second)
	})
	if reports != 0 {
		t.Fatalf("reports = %d, want 0 for idle query", reports)
	}
}

func TestAgentStatsCountEmissions(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		for i := 0; i < 50; i++ {
			tp.Here(request("h1"), 1)
		}
		a.Flush()
		st := a.Stats()
		if st.TuplesEmitted != 50 {
			t.Errorf("TuplesEmitted = %d", st.TuplesEmitted)
		}
		if st.RowsReported != 1 {
			t.Errorf("RowsReported = %d (aggregation should collapse to one group)", st.RowsReported)
		}
		if st.Reports != 1 {
			t.Errorf("Reports = %d", st.Reports)
		}
	})
}

func TestAgentCloseUnweavesEverything(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		a.Close()
		if tp.Enabled() {
			t.Error("tracepoint still woven after Close")
		}
		// Control messages after Close are ignored.
		b.Publish(ControlTopic, Install{QueryID: "Q2", Programs: []*advice.Program{q1Program()}})
		if tp.Enabled() {
			t.Error("closed agent still handling control messages")
		}
	})
}

func TestAgentDuplicateInstallIgnored(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		msg := Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}}
		b.Publish(ControlTopic, msg)
		b.Publish(ControlTopic, msg)
		tp.Here(request("h1"), 1)
		a.Flush()
		if st := a.Stats(); st.TuplesEmitted != 1 {
			t.Errorf("duplicate install double-weaved: %d emissions", st.TuplesEmitted)
		}
	})
}

func TestNilEnvAgentManualFlush(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	a := New(nil, info("h1"), reg, b, 0)
	var reports []Report
	b.Subscribe(ResultsTopic, func(msg any) { reports = append(reports, resultReports(msg)...) })
	b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
	tp.Here(request("h1"), 3)
	a.Flush()
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Time <= 0 {
		t.Error("wall-clock report time expected")
	}
}

// --- outage retention ring buffer ---

func report(id string, at time.Duration) Report {
	return Report{QueryID: id, Host: "h1", ProcName: "p", Time: at}
}

func newIdleAgent() *Agent {
	return New(nil, info("h1"), tracepoint.NewRegistry(), bus.New(), 0)
}

func TestRetainReplaysInFIFOOrder(t *testing.T) {
	a := newIdleAgent()
	defer a.Close()
	a.SetRetention(8)
	for i := 0; i < 3; i++ {
		a.Retain(report("Q", time.Duration(i)))
	}
	if a.Buffered() != 3 {
		t.Fatalf("buffered = %d, want 3", a.Buffered())
	}
	var sent []Report
	n := a.ReplayRetained(func(r Report) error { sent = append(sent, r); return nil })
	if n != 3 || a.Buffered() != 0 {
		t.Fatalf("replayed = %d (buffered %d), want 3 (0)", n, a.Buffered())
	}
	for i, r := range sent {
		if r.Time != time.Duration(i) {
			t.Errorf("replay[%d].Time = %d, want %d (FIFO)", i, r.Time, i)
		}
	}
	st := a.Stats()
	if st.ReportsRetained != 3 || st.ReportsReplayed != 3 || st.ReportsDropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetainEvictsOldestWhenFull(t *testing.T) {
	a := newIdleAgent()
	defer a.Close()
	a.SetRetention(2)
	for i := 0; i < 5; i++ {
		a.Retain(report("Q", time.Duration(i)))
	}
	if a.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2", a.Buffered())
	}
	var sent []Report
	a.ReplayRetained(func(r Report) error { sent = append(sent, r); return nil })
	if len(sent) != 2 || sent[0].Time != 3 || sent[1].Time != 4 {
		t.Fatalf("replayed %v, want times 3,4 (newest retained)", sent)
	}
	st := a.Stats()
	// Every retained report is accounted: 5 retained = 2 replayed + 3 dropped.
	if st.ReportsRetained != 5 || st.ReportsDropped != 3 || st.ReportsReplayed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReplayStopsAtFirstFailureAndKeepsReport(t *testing.T) {
	a := newIdleAgent()
	defer a.Close()
	a.SetRetention(8)
	for i := 0; i < 3; i++ {
		a.Retain(report("Q", time.Duration(i)))
	}
	calls := 0
	n := a.ReplayRetained(func(r Report) error {
		calls++
		if calls == 2 {
			return bus.ErrLinkDown
		}
		return nil
	})
	if n != 1 {
		t.Fatalf("replayed = %d, want 1", n)
	}
	// The failed report (Time=1) and its successor are still buffered, in
	// order, for the next reconnect.
	var sent []Report
	a.ReplayRetained(func(r Report) error { sent = append(sent, r); return nil })
	if len(sent) != 2 || sent[0].Time != 1 || sent[1].Time != 2 {
		t.Fatalf("second replay %v, want times 1,2", sent)
	}
}

func TestRetentionDefaultsWhenUnset(t *testing.T) {
	a := newIdleAgent()
	defer a.Close()
	for i := 0; i < DefaultRetention+5; i++ {
		a.Retain(report("Q", time.Duration(i)))
	}
	if a.Buffered() != DefaultRetention {
		t.Fatalf("buffered = %d, want DefaultRetention (%d)", a.Buffered(), DefaultRetention)
	}
	if st := a.Stats(); st.ReportsDropped != 5 {
		t.Errorf("dropped = %d, want 5", st.ReportsDropped)
	}
}

func TestNoteReconnectCountsIntoStatsAndHeartbeat(t *testing.T) {
	b := bus.New()
	a := New(nil, info("h1"), tracepoint.NewRegistry(), b, 0)
	defer a.Close()
	var hb Heartbeat
	b.Subscribe(HealthTopic, func(msg any) { hb = msg.(Heartbeat) })
	a.NoteReconnect()
	a.NoteReconnect()
	a.Flush()
	if hb.Stats.Reconnects != 2 {
		t.Errorf("heartbeat reconnects = %d, want 2", hb.Stats.Reconnects)
	}
}

// TestAgentSpanCaptureShipsBatchesAndExplain: with span capture enabled,
// each flush drains the ring into SpanBatch frames on TraceTopic and
// snapshots every installed query's operator counters as ExplainStats.
// The ring is bounded — crossings beyond capacity overwrite the oldest
// spans and are accounted as drops, never blocking the hot path.
func TestAgentSpanCaptureShipsBatchesAndExplain(t *testing.T) {
	env := simtime.NewEnv()
	var (
		batches  []SpanBatch
		explains []ExplainStats
		st       Stats
	)
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		a.EnableSpans(1<<32, 4)
		b.Subscribe(TraceTopic, func(msg any) {
			switch m := msg.(type) {
			case SpanBatch:
				batches = append(batches, m)
			case ExplainStats:
				explains = append(explains, m)
			}
		})
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		ctx := request("h1")
		for i := 0; i < 6; i++ { // 6 crossings into a 4-slot ring
			tp.Here(ctx, 1)
		}
		env.Sleep(1500 * time.Millisecond) // one reporting interval
		st = a.Stats()
	})
	var shipped int
	for _, sb := range batches {
		if sb.Host != "h1" || sb.ProcName != "p" {
			t.Fatalf("batch identity = %s/%s", sb.Host, sb.ProcName)
		}
		shipped += len(sb.Spans)
	}
	if shipped != 4 {
		t.Errorf("shipped spans = %d, want 4 (ring capacity)", shipped)
	}
	if st.SpansCaptured != 6 || st.SpansDropped != 2 {
		t.Errorf("captured/dropped = %d/%d, want 6/2", st.SpansCaptured, st.SpansDropped)
	}
	if len(explains) == 0 {
		t.Fatal("no ExplainStats published")
	}
	es := explains[0]
	if es.QueryID != "Q" || len(es.Ops) != 1 || es.Ops[0].Invocations != 6 {
		t.Errorf("explain snapshot = %+v", es)
	}
	if es.FlushNS <= 0 {
		t.Errorf("FlushNS = %d for a query that had tuples to drain, want its drain timed", es.FlushNS)
	}
}
