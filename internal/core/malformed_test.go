package core

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/tracepoint"
	"repro/internal/wire"
)

// overWire round-trips a report through the codec in a one-report batch,
// as a TCP bus link would: wire.Unmarshal accepts any well-framed group,
// whatever its shape.
func overWire(t *testing.T, r agent.Report) agent.ReportBatch {
	t.Helper()
	buf, err := wire.Marshal(agent.ReportBatch{Reports: []agent.Report{r}})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Unmarshal(buf)
	if err != nil {
		t.Fatalf("the codec rejected the frame; this test needs it accepted: %v", err)
	}
	return msg.(agent.ReportBatch)
}

// TestMalformedReportRejected: a decodable report whose group has one
// state too few, or a state of the wrong aggregate, must be rejected whole
// by the merger — counted at the frontend, skipped at a combiner — and
// never panic the bus goroutine or a later Rows(). (Before the merger
// validated shape, the short group panicked Rows() with "index out of
// range [1] with length 1" and the wrong aggregate panicked agg.State.Merge.)
func TestMalformedReportRejected(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	pt := New(b, reg)
	proc := tracepoint.ProcInfo{Host: "h1", ProcName: "svc", ProcID: 1}
	ag := agent.New(nil, proc, reg, b, time.Second)
	defer ag.Close()
	h, err := pt.Install(`From e In Tp GroupBy e.host Select e.host, COUNT, SUM(e.v)`)
	if err != nil {
		t.Fatal(err)
	}
	var valid agent.Report
	b.Subscribe(agent.ResultsTopic, func(msg any) {
		if rb, ok := msg.(agent.ReportBatch); ok && valid.QueryID == "" {
			valid = rb.Reports[0]
		}
	})
	tp.Here(tracepoint.WithProc(context.Background(), proc), 5)
	ag.Flush()
	if len(valid.Groups) != 1 || len(valid.Groups[0].States) != 2 {
		t.Fatalf("setup: want one valid group with two states, got %+v", valid)
	}

	withGroup := func(mutate func(g *advice.Group)) agent.ReportBatch {
		r := valid
		g := valid.Groups[0].Clone()
		mutate(g)
		r.Groups = []*advice.Group{valid.Groups[0], g}
		return overWire(t, r)
	}
	short := withGroup(func(g *advice.Group) { g.Key, g.States = "first-sight", g.States[:1] })
	wrongFn := withGroup(func(g *advice.Group) { g.States[1] = agg.Make(agg.Max) })

	rejected := pt.Telemetry().Counter("core.reports.rejected")
	merged := pt.Telemetry().Counter("core.reports.merged")
	b.Publish(agent.ResultsTopic, short)
	b.Publish(agent.ResultsTopic, wrongFn)
	if rejected.Load() != 2 || merged.Load() != 1 {
		t.Fatalf("rejected/merged = %d/%d, want 2/1", rejected.Load(), merged.Load())
	}
	checkRows := func(count, sum int64) {
		t.Helper()
		rows := h.Rows()
		if len(rows) != 1 || rows[0][1].Int() != count || rows[0][2].Int() != sum {
			t.Fatalf("rows = %v, want one row with COUNT=%d SUM=%d (rejected reports merge nothing)", rows, count, sum)
		}
	}
	checkRows(1, 5)

	// The same frames through a combiner tier: skipped, left out of
	// CombinerReportsMerged, and the valid traffic still flows upstream.
	c := combiner.New(nil, "rack", "mid", b, combiner.Config{Subscribe: []string{"part"}})
	defer c.Close()
	b.Publish("part", overWire(t, valid))
	b.Publish("part", short)
	b.Publish("part", wrongFn)
	c.Flush()
	if got := c.Stats().CombinerReportsMerged; got != 1 {
		t.Fatalf("CombinerReportsMerged = %d, want 1", got)
	}
	// The two skipped reports reach operators: in the tier's heartbeat
	// (published by the Flush above) and in ptstat's agents table.
	st := pt.Status()
	if len(st.Agents) != 2 || st.Agents[1].Host != "rack" || st.Agents[1].Stats.ReportsRejected != 2 {
		t.Fatalf("status agents = %+v, want h1 then the rack tier with ReportsRejected = 2", st.Agents)
	}
	lines := strings.Split(RenderStatus(st), "\n")
	header, row := strings.Fields(lines[1]), strings.Fields(lines[3])
	if col := slices.Index(header, "rejected"); col < 0 || len(row) != len(header) || row[col] != "2" {
		t.Fatalf("agents table does not show 2 under a rejected column:\n%s\n%s", lines[1], lines[3])
	}
	if rejected.Load() != 2 || merged.Load() != 2 {
		t.Fatalf("after the combiner flush: rejected/merged = %d/%d, want 2/2", rejected.Load(), merged.Load())
	}
	checkRows(2, 10)
}
