package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/tuple"
)

func sumOp() *advice.EmitOp {
	return &advice.EmitOp{
		Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: 1, Fn: agg.Sum}},
		GroupBy: []int{0},
		Schema:  tuple.Schema{"host", "SUM(v)"},
	}
}

// report fabricates an agent report with one group (key, sum).
func report(at time.Duration, host string, key string, v int64) agent.Report {
	acc := advice.NewAccumulator(sumOp())
	acc.Add(tuple.Tuple{tuple.String(key), tuple.Int(v)})
	return agent.Report{
		QueryID: "Q", Host: host, Time: at, Groups: acc.Groups(),
	}
}

func TestCollectorBinsAndMergesAcrossProcesses(t *testing.T) {
	c := NewCollector(sumOp(), time.Second)
	// Two processes reporting in the same bin must merge.
	c.OnReport(report(1100*time.Millisecond, "h1", "k", 10))
	c.OnReport(report(1900*time.Millisecond, "h2", "k", 5))
	// A later bin.
	c.OnReport(report(2500*time.Millisecond, "h1", "k", 7))
	series := c.Series([]int{0}, 1, false)
	pts := series["k"]
	if len(pts) != 2 {
		t.Fatalf("series = %v", pts)
	}
	if pts[0].V != 15 || pts[1].V != 7 {
		t.Fatalf("series = %v", pts)
	}
	if pts[0].T != time.Second || pts[1].T != 2*time.Second {
		t.Fatalf("bin times = %v", pts)
	}
}

func TestCollectorOutOfOrderReports(t *testing.T) {
	c := NewCollector(sumOp(), time.Second)
	// Reports arrive newest-first and interleaved; binning must not
	// depend on arrival order.
	c.OnReport(report(2500*time.Millisecond, "h1", "k", 7))
	c.OnReport(report(1100*time.Millisecond, "h1", "k", 10))
	c.OnReport(report(2900*time.Millisecond, "h2", "k", 3)) // duplicate bin, late
	c.OnReport(report(1900*time.Millisecond, "h2", "k", 5)) // duplicate bin, late
	series := c.Series([]int{0}, 1, false)
	pts := series["k"]
	if len(pts) != 2 {
		t.Fatalf("series = %v", pts)
	}
	if pts[0].T != time.Second || pts[0].V != 15 {
		t.Errorf("bin 1 = %v, want (1s, 15)", pts[0])
	}
	if pts[1].T != 2*time.Second || pts[1].V != 10 {
		t.Errorf("bin 2 = %v, want (2s, 10)", pts[1])
	}
}

func TestCollectorNegativeTimesGetOwnBins(t *testing.T) {
	c := NewCollector(sumOp(), time.Second)
	// A report stamped before the epoch (skewed clock) must not share
	// bin 0 with a positive-time report: -500ms floors to bin -1.
	c.OnReport(report(-500*time.Millisecond, "h1", "k", 1))
	c.OnReport(report(500*time.Millisecond, "h2", "k", 2))
	c.OnReport(report(-1500*time.Millisecond, "h1", "k", 4))
	c.OnReport(report(-time.Second, "h1", "k", 8)) // exact boundary: bin -1
	series := c.Series([]int{0}, 1, false)
	pts := series["k"]
	if len(pts) != 3 {
		t.Fatalf("series = %v", pts)
	}
	if pts[0].T != -2*time.Second || pts[0].V != 4 {
		t.Errorf("bin -2 = %v, want (-2s, 4)", pts[0])
	}
	if pts[1].T != -time.Second || pts[1].V != 9 {
		t.Errorf("bin -1 = %v, want (-1s, 9)", pts[1])
	}
	if pts[2].T != 0 || pts[2].V != 2 {
		t.Errorf("bin 0 = %v, want (0s, 2)", pts[2])
	}
}

func TestCollectorRateDividesByBin(t *testing.T) {
	c := NewCollector(sumOp(), 2*time.Second)
	c.OnReport(report(0, "h1", "k", 10))
	series := c.Series([]int{0}, 1, true)
	if got := series["k"][0].V; got != 5 {
		t.Fatalf("rate = %v, want 5/s", got)
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := RenderTable([]string{"name", "value"}, [][]string{
		{"a", "1"},
		{"longer-name", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %q", lines)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("header and separator misaligned:\n%s", out)
	}
	if !strings.Contains(lines[2], "a") || !strings.Contains(lines[3], "longer-name") {
		t.Errorf("rows missing:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	s := Sparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline = %q", s)
	}
	runes := []rune(s)
	if runes[0] >= runes[3] {
		t.Errorf("sparkline not increasing: %q", s)
	}
	// All-zero input must not divide by zero.
	if z := Sparkline([]float64{0, 0}); len([]rune(z)) != 2 {
		t.Errorf("zero sparkline = %q", z)
	}
}

func TestHeatmapLabels(t *testing.T) {
	out := Heatmap([]string{"host-A", "host-B"}, []string{"host-A", "host-B"},
		func(r, c int) float64 { return float64(r + c) })
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Errorf("heatmap labels:\n%s", out)
	}
	if !strings.ContainsRune(out, '█') {
		t.Errorf("heatmap max shade missing:\n%s", out)
	}
}

func TestLatencyRecorderStats(t *testing.T) {
	lr := NewLatencyRecorder()
	if lr.Mean() != 0 || lr.Count() != 0 {
		t.Error("empty recorder should be zeroes")
	}
	for i := 1; i <= 100; i++ {
		lr.Record(time.Duration(i)*100*time.Millisecond, time.Duration(i)*time.Millisecond)
	}
	if lr.Count() != 100 {
		t.Errorf("count = %d", lr.Count())
	}
	if m := lr.Mean(); m < 0.0500 || m > 0.0510 {
		t.Errorf("mean = %v, want ~50.5ms", m)
	}
}

func TestLatencyRecorderThroughput(t *testing.T) {
	lr := NewLatencyRecorder()
	// 3 ops in second 0, 1 op in second 2 (second 1 idle).
	lr.Record(100*time.Millisecond, time.Millisecond)
	lr.Record(500*time.Millisecond, time.Millisecond)
	lr.Record(900*time.Millisecond, time.Millisecond)
	lr.Record(2500*time.Millisecond, time.Millisecond)
	pts := lr.Throughput(time.Second)
	if len(pts) != 3 {
		t.Fatalf("bins = %v", pts)
	}
	if pts[0].V != 3 || pts[1].V != 0 || pts[2].V != 1 {
		t.Fatalf("throughput = %v", pts)
	}
}
