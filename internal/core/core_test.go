package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// deployment is one frontend plus one agent sharing a bus — the minimal
// monitored system.
type deployment struct {
	env *simtime.Env
	b   *bus.Bus
	pt  *PivotTracing
	reg *tracepoint.Registry
	ag  *agent.Agent
}

func deploy(env *simtime.Env) *deployment {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	pt := New(b, reg)
	ag := agent.New(env, tracepoint.ProcInfo{Host: "h1", ProcName: "svc", ProcID: 1}, reg, b, time.Second)
	return &deployment{env: env, b: b, pt: pt, reg: reg, ag: ag}
}

func (d *deployment) request() context.Context {
	ctx := tracepoint.WithProc(context.Background(),
		tracepoint.ProcInfo{Host: "h1", ProcName: "svc", ProcID: 1})
	return baggage.NewContext(ctx, baggage.New())
}

func TestInstallAutoNamesQueries(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		d.reg.Define("Tp", "v")
		h1, err := d.pt.Install(`From e In Tp GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := d.pt.Install(`From e In Tp GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		if h1.Name == h2.Name || h1.Name == "" {
			t.Errorf("names: %q, %q", h1.Name, h2.Name)
		}
	})
}

func TestInstallRejectsBadQuery(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		if _, err := d.pt.Install(`From e In Missing Select COUNT`); err == nil {
			t.Error("unknown tracepoint should fail")
		}
		if _, err := d.pt.Install(`this is not a query`); err == nil {
			t.Error("syntax error should fail")
		}
	})
}

func TestInstallNamedDuplicateRejected(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		d.reg.Define("Tp", "v")
		if _, err := d.pt.InstallNamed("Q", `From e In Tp GroupBy e.host Select e.host, COUNT`, plan.Optimized); err != nil {
			t.Fatal(err)
		}
		if _, err := d.pt.InstallNamed("Q", `From e In Tp GroupBy e.host Select e.host, COUNT`, plan.Optimized); err == nil {
			t.Error("duplicate name should fail")
		}
	})
}

func TestGlobalMergeAcrossIntervals(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		tp := d.reg.Define("Tp", "v")
		h, err := d.pt.Install(`From e In Tp GroupBy e.host Select e.host, AVERAGE(e.v)`)
		if err != nil {
			t.Fatal(err)
		}
		// Two intervals, different values: AVERAGE must merge partial
		// states (not average the per-interval averages, which would give
		// the wrong answer for uneven interval counts).
		tp.Here(d.request(), 10)
		d.ag.Flush()
		tp.Here(d.request(), 20)
		tp.Here(d.request(), 30)
		d.ag.Flush()
		rows := h.Rows()
		if len(rows) != 1 || rows[0][1].Float() != 20 {
			t.Fatalf("rows = %v, want average 20", rows)
		}
	})
}

func TestOnReportStreams(t *testing.T) {
	env := simtime.NewEnv()
	var got []agent.Report
	env.Run(func() {
		d := deploy(env)
		tp := d.reg.Define("Tp", "v")
		h, err := d.pt.Install(`From e In Tp GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		h.OnReport(func(r agent.Report) { got = append(got, r) })
		tp.Here(d.request(), 1)
		env.Sleep(1500 * time.Millisecond)
	})
	if len(got) != 1 || got[0].Host != "h1" {
		t.Fatalf("reports = %+v", got)
	}
}

func TestNamedQueryJoinableAcrossInstalls(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		d.reg.Define("Recv")
		d.reg.Define("Send")
		d.reg.Define("Done", "id")
		if _, err := d.pt.InstallNamed("LAT", `From s In Send
			Join r In MostRecent(Recv) On r -> s
			Select s.time - r.time`, plan.Optimized); err != nil {
			t.Fatal(err)
		}
		h, err := d.pt.Install(`From d In Done
			Join m In LAT On m -> end
			GroupBy d.id Select d.id, AVERAGE(m)`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(h.Explain(), "UNPACK") {
			t.Errorf("Explain = %q", h.Explain())
		}
	})
}

func TestUninstalledNameNoLongerJoinable(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		d.reg.Define("Send")
		d.reg.Define("Done", "id")
		h, err := d.pt.InstallNamed("LAT", `From s In Send Select s.time`, plan.Optimized)
		if err != nil {
			t.Fatal(err)
		}
		h.Uninstall()
		if _, err := d.pt.Install(`From d In Done Join m In LAT On m -> end GroupBy d.id Select d.id, AVERAGE(m)`); err == nil {
			t.Error("joining an uninstalled query should fail")
		}
	})
}

func TestRawQueryRowsStream(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		tp := d.reg.Define("Tp", "v")
		h, err := d.pt.Install(`From e In Tp Select e.v`)
		if err != nil {
			t.Fatal(err)
		}
		tp.Here(d.request(), 7)
		tp.Here(d.request(), 8)
		d.ag.Flush()
		rows := h.Rows()
		if len(rows) != 2 {
			t.Fatalf("rows = %v", rows)
		}
	})
}

// TestExplainAnalyzeCountsActivity: the query's EXPLAIN ANALYZE view
// carries the §4 cost counters on the operators they belong to.
func TestExplainAnalyzeCountsActivity(t *testing.T) {
	env := simtime.NewEnv()
	var report string
	env.Run(func() {
		d := deploy(env)
		src := d.reg.Define("Src", "v")
		final := d.reg.Define("Final")
		h, err := d.pt.Install(`From f In Final
			Join s In Src On s -> f
			GroupBy s.v Select s.v, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		// Request 1: full chain. Request 2: join miss at Final.
		ctx := d.request()
		src.Here(ctx, 1)
		final.Here(ctx)
		final.Here(d.request())
		report = h.ExplainAnalyze()
	})
	// Src packed 1 tuple; Final dropped 1 of 2 invocations.
	for _, want := range []string{"at Src:", "at Final:", "packed=1", "join-drops=1", "fires=2"} {
		if !strings.Contains(report, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, report)
		}
	}
}

// TestSamplingScalesDownProcessing: a query sampled at request level
// (Sample 0.1) processes about a tenth of 100 requests, counts the rest as
// sampled, and reports a weighted COUNT flagged inexact.
func TestSamplingScalesDownProcessing(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		d := deploy(env)
		tp := d.reg.Define("Tp", "v")
		h, err := d.pt.InstallNamed("S", `From e In Tp GroupBy e.host Select e.host, COUNT Sample 0.1`,
			plan.Options{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ctx := d.request()
			d.ag.MintSampleDecision(baggage.FromContext(ctx))
			tp.Here(ctx, i)
		}
		d.ag.Flush()
		cost := &h.Plan.Emit.Cost
		kept, sampled := cost.TuplesEmitted.Load(), cost.Sampled.Load()
		if kept+sampled != 100 || kept == 0 || sampled == 0 {
			t.Fatalf("kept %d + sampled %d, want both > 0 and summing to 100", kept, sampled)
		}
		groups := h.Groups()
		if len(groups) != 1 || groups[0].States[0].Exact() {
			t.Fatalf("groups = %v, want one inexact COUNT", groups)
		}
		// Each kept request weighs 1/0.1: COUNT estimates 100 from kept.
		if got := h.Rows()[0][1].Int(); got != 10*kept {
			t.Errorf("sampled COUNT = %d, want 10 × %d kept", got, kept)
		}
	})
}
