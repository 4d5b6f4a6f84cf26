package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// The short run of Paper(), made once and shared by every test below: the
// same run `ptbench -paper -short` prints, so the shape claims are checked
// on the bytes testdata/quick.txt pins.
var (
	shortOnce sync.Once
	shortFigs map[string]Figure
	shortOut  string
	shortErr  error
)

func shortRun(t *testing.T) (map[string]Figure, string) {
	t.Helper()
	shortOnce.Do(func() {
		shortFigs = map[string]Figure{}
		var b strings.Builder
		for _, s := range Paper() {
			fig, err := s.Run(true)
			if err != nil {
				shortErr = fmt.Errorf("%s: %w", s.ID, err)
				return
			}
			shortFigs[s.ID] = fig
			b.WriteString(fig.Render() + "\n")
		}
		shortOut = b.String()
	})
	if shortErr != nil {
		t.Fatal(shortErr)
	}
	return shortFigs, shortOut
}

// figure returns the short run's result for the step with this ID.
func figure[F Figure](t *testing.T, id string) F {
	t.Helper()
	figs, _ := shortRun(t)
	return figs[id].(F)
}

// TestPaperShort pins the whole short report. A change that means to move
// a figure rewrites the golden with
//
//	go run ./cmd/ptbench -paper -short > internal/experiments/testdata/quick.txt
func TestPaperShort(t *testing.T) {
	_, got := shortRun(t)
	want, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
				break
			}
		}
		t.Fatalf("short report (%d bytes) differs from testdata/quick.txt (%d bytes)", len(got), len(want))
	}
	// Q7's baggage is a property of the query and the request, not of the
	// load around it or of which replica the request read.
	buggy, fixed := figure[*Fig8Result](t, "fig8-buggy"), figure[*Fig8Result](t, "fig8-fixed")
	if buggy.Q7BaggageBytes != fixed.Q7BaggageBytes {
		t.Errorf("Q7 baggage: %d bytes with the bug, %d with the fixes", buggy.Q7BaggageBytes, fixed.Q7BaggageBytes)
	}
}

func TestFig3MatchesPaper(t *testing.T) {
	res := figure[*Fig3Result](t, "fig3")
	want := map[string][]string{
		"A":         {"(a1)", "(a2)", "(a3)"},
		"A->B":      {"(a1, b2)", "(a2, b2)"},
		"B->C":      {"(b1, c1)", "(b1, c2)", "(b2, c2)"},
		"(A->B)->C": {"(a1, b2, c2)", "(a2, b2, c2)"},
	}
	for name, wantRows := range want {
		got := map[string]bool{}
		for _, row := range res.Results[name] {
			got[row.String()] = true
		}
		if len(got) != len(wantRows) {
			t.Errorf("%s: got %v, want %v", name, res.Results[name], wantRows)
			continue
		}
		for _, w := range wantRows {
			if !got[w] {
				t.Errorf("%s: missing %s in %v", name, w, res.Results[name])
			}
		}
	}
}

func TestFig1ShapeAndRendering(t *testing.T) {
	res := figure[*Fig1Result](t, "fig1")
	// Fig 1a: every DataNode host shows read throughput.
	if len(res.HostSeries) == 0 {
		t.Fatal("no per-host series")
	}
	// Fig 1b: the bulk readers are attributed.
	for _, app := range []string{"FSREAD4M", "FSREAD64M"} {
		if _, ok := res.AppSeries[app]; !ok {
			t.Errorf("no series for %s: have %v", app, sortedKeys(res.AppSeries))
		}
	}
}

func TestTrafficComparison(t *testing.T) {
	res := figure[*TrafficResult](t, "fig6")
	if !res.ResultsMatch {
		t.Errorf("strategies disagree:\n  optimized: %v\n  baseline:  %v", res.OptRows, res.BaseRows)
	}
	// The §4 shape: per-interval aggregation collapses emitted tuples by a
	// large factor.
	if res.OptEmittedPerDNPerSec < 5*res.OptReportedPerDNPerSec {
		t.Errorf("aggregation reduction too small: %v emitted vs %v reported",
			res.OptEmittedPerDNPerSec, res.OptReportedPerDNPerSec)
	}
	// Fig 6 shape: the baseline ships far more tuples than the optimized
	// strategy reports.
	if res.BaseEmittedPerDNPerSec < 5*res.OptReportedPerDNPerSec {
		t.Errorf("baseline traffic (%v/s) not clearly above optimized (%v/s)",
			res.BaseEmittedPerDNPerSec, res.OptReportedPerDNPerSec)
	}
	// Baseline causal metadata stays small (constant-size baggage).
	if res.BaselineBaggageAvg <= 0 || res.BaselineBaggageAvg > 100 {
		t.Errorf("baseline baggage avg = %v bytes", res.BaselineBaggageAvg)
	}
}

// colShare returns each column's share of the total selection mass.
func colShare(m map[string]map[string]float64, hosts []string) map[string]float64 {
	total := 0.0
	col := map[string]float64{}
	for _, r := range hosts {
		for _, c := range hosts {
			v := m[r][c]
			col[c] += v
			total += v
		}
	}
	for c := range col {
		col[c] /= total
	}
	return col
}

func TestFig8BuggySelectionIsSkewed(t *testing.T) {
	res := figure[*Fig8Result](t, "fig8-buggy")
	shares := colShare(res.SelectFreq, res.Hosts)
	top := 0.0
	for _, s := range shares {
		top = max(top, s)
	}
	// With the bug, the top-priority DataNode absorbs far more than its
	// fair share (0.25 for 4 hosts).
	if top < 0.35 {
		t.Errorf("buggy selection not skewed: shares = %v", shares)
	}

	// 8e: replica locations remain near-uniform regardless of the bug.
	repl := colShare(res.ReplicaFreq, res.Hosts)
	for h, s := range repl {
		if s < 0.15 || s > 0.35 {
			t.Errorf("replica placement skewed at %s: %v", h, repl)
		}
	}

	// 8d: clients read files uniformly (low CV).
	for h, s := range res.ReadCV {
		if s.Files < 10 {
			t.Errorf("client %s read only %d files", h, s.Files)
		}
	}

	// 8g: preference must be strongly asymmetric somewhere (host always
	// preferred over another).
	sawExtreme := false
	for _, a := range res.Hosts {
		for _, b := range res.Hosts {
			if v := res.PrefFreq[a][b]; v > 0.97 {
				sawExtreme = true
			}
		}
	}
	if !sawExtreme {
		t.Error("8g: no near-certain preference despite static ordering")
	}

	if res.Q7BaggageBytes <= 0 || res.Q7BaggageBytes > 400 {
		t.Errorf("Q7 baggage = %d bytes, want small positive", res.Q7BaggageBytes)
	}
}

func TestFig8FixedSelectionIsBalanced(t *testing.T) {
	res := figure[*Fig8Result](t, "fig8-fixed")
	shares := colShare(res.SelectFreq, res.Hosts)
	for h, s := range shares {
		if s < 0.10 || s > 0.45 {
			t.Errorf("fixed selection skewed at %s: %v", h, shares)
		}
	}
}

func TestFig9LimplockDiagnosis(t *testing.T) {
	res := figure[*Fig9Result](t, "fig9")
	if len(res.Latencies) == 0 {
		t.Fatal("no request latencies recorded")
	}

	// The diagnosis: DN transfer spans for flows touching the faulty host
	// must blow up after the fault, far beyond flows between healthy
	// hosts. Keys are "src/dst" pairs.
	faulty := res.FaultHost
	afterXfer := res.After["DN transfer"]
	var worstFaulty, worstHealthy float64
	for key, v := range afterXfer {
		if strings.Contains(key, faulty) {
			worstFaulty = max(worstFaulty, v)
		} else {
			worstHealthy = max(worstHealthy, v)
		}
	}
	if worstFaulty <= 0 {
		t.Fatalf("no DN transfer spans touching faulty host: %v", afterXfer)
	}
	if worstFaulty < 3*worstHealthy {
		t.Errorf("faulty-host transfers (%.3fs) not clearly worse than healthy (%.3fs): %v",
			worstFaulty, worstHealthy, afterXfer)
	}

	// 9c: the faulty host's network throughput must drop after the fault.
	var before, after float64
	var nb, na int
	for _, p := range res.NetworkTx[faulty] {
		if p.T <= res.FaultAt {
			before += p.V
			nb++
		} else {
			after += p.V
			na++
		}
	}
	if nb > 0 && na > 0 && after/float64(na) > before/float64(nb) {
		t.Errorf("faulty host tx did not drop: before=%.0f after=%.0f",
			before/float64(nb), after/float64(na))
	}
}

func TestRogueGCDiagnosis(t *testing.T) {
	res := figure[*GCResult](t, "rogue-gc")
	// GC pauses observed only on the rogue host.
	if len(res.GCSpans) != 1 {
		t.Fatalf("GC spans on %v, want only %s", res.GCSpans, res.GCHost)
	}
	span, ok := res.GCSpans[res.GCHost]
	if !ok || span[0] < 2 {
		t.Fatalf("GC pauses = %v", res.GCSpans)
	}
	if span[1] < 1.2 || span[1] > 1.8 {
		t.Errorf("mean GC pause = %vs, want ~1.5s", span[1])
	}
	// The rogue host's RS latency is the worst.
	worst, worstHost := 0.0, ""
	for host, v := range res.RSLatency {
		if v > worst {
			worst, worstHost = v, host
		}
	}
	if worstHost != res.GCHost {
		t.Errorf("worst RS latency on %s (%vs), want %s: %v", worstHost, worst, res.GCHost, res.RSLatency)
	}
}

func TestNNLockContention(t *testing.T) {
	res := figure[*NNLockResult](t, "nn-lock")
	if res.ExclMean < 2*res.SharedMean {
		t.Errorf("exclusive locking (%vs) not clearly slower than shared (%vs)",
			res.ExclMean, res.SharedMean)
	}
}

func TestTable5OverheadShape(t *testing.T) {
	res := figure[*Table5Result](t, "table5")
	for _, config := range Configs {
		for _, op := range Ops {
			if res.OpsRun[config][op] < 50 {
				t.Errorf("%s/%s: only %d ops", config, op, res.OpsRun[config][op])
			}
		}
	}
	// Shape: 60 packed tuples must cost clearly more than 1 packed tuple
	// on the short CPU-bound Open operation.
	open60 := res.Overhead[CfgBaggage60][workload.OpOpen]
	open1 := res.Overhead[CfgBaggage1][workload.OpOpen]
	if open60 <= open1 {
		t.Errorf("Open overhead: 60 tuples (%+.2f%%) should exceed 1 tuple (%+.2f%%)", open60, open1)
	}
	// PT enabled with no queries is effectively free.
	for _, op := range Ops {
		if v := res.Overhead[CfgPTEnabled][op]; v > 1.0 || v < -1.0 {
			t.Errorf("PT enabled overhead for %s = %+.2f%%, want ~0", op, v)
		}
	}
	// Installed queries cost something on ops they observe.
	if res.Overhead[CfgQueries61][workload.OpRead8k] <= 0 {
		t.Errorf("§6.1 queries show no overhead on Read8k: %+v", res.Overhead[CfgQueries61])
	}
}
