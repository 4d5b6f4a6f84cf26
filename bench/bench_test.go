package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/pivot"
)

// testConfig is every workload at 1/200 scale with fixed work: two
// segments, so counts are a function of the seed alone.
func testConfig(t *testing.T, seed int64, traced bool) config {
	return config{
		seed: seed, seconds: 0.2, scale: 1.0 / 200, traced: traced,
		segments: 2, setups: 1, outDir: t.TempDir(),
	}
}

// specMetric and benchmarkSpec are the part of BENCHMARK.json the tests
// hold the program to.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram: BENCHMARK.json and the program's own tables name
// the same workloads and metrics with the same units.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, program has %v", names, workloadNames)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and traced
// and checks that the result is correct and carries exactly the metrics
// BENCHMARK.json names, each finite.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := testConfig(t, 1, traced)
			res, err := measure(name, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q is malformed", m.Name)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if traced {
				if n := res.Metrics["combiner.rows_in"].Value; (n > 0) != (name == "tree-fanin") {
					t.Errorf("%s: combiner.rows_in = %v; only tree-fanin has combiners", name, n)
				}
				if _, err := os.Stat(cfg.outDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: no trace written: %v", name, err)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", name, traced, err)
			}
		}
	}
}

// TestSameSeedSameCounts: fixed work from a fixed seed repeats its counts
// exactly. The round-synchronous workloads repeat every count; on
// hb-crossings the generators never wait for the reporter, so at this
// scale a flush may find a later chunk's tuples already taken by the
// previous one — the flush and tuple counts and the baggage bytes repeat,
// the report and frame counts need not. On tree-fanin the probe query is
// woven while crossings run, so how many tuples it sees is not fixed; the
// reports, rows and frames are.
func TestSameSeedSameCounts(t *testing.T) {
	exact := map[string][]string{
		"hb-crossings": {"agent.flushes", "agent.tuples_emitted", "baggage.bytes_per_request", "baggage.tuples_per_request"},
		"wide-groups":  {"agent.flushes", "agent.reports", "agent.rows_out", "agent.tuples_emitted", "bus.server_frames", "core.reports_merged"},
		"tree-fanin":   {"agent.flushes", "agent.reports", "agent.rows_out", "bus.server_frames", "combiner.rows_in", "combiner.rows_out", "combiner.frames_out"},
		"sim-herd":     {"agent.tuples_emitted"},
	}
	for _, name := range workloadNames {
		a, err := measure(name, testConfig(t, 7, true), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(name, testConfig(t, 7, true), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d then %d", name, a.Attempted, b.Attempted)
		}
		for _, m := range exact[name] {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s = %v then %v with the same seed", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
			if a.Metrics[m].Value == 0 {
				t.Errorf("%s: %s = 0", name, m)
			}
		}
	}
}

// TestDifferentSeedDifferentInputs: the seed decides the key draws.
func TestDifferentSeedDifferentInputs(t *testing.T) {
	cfg := testConfig(t, 1, false)
	keys := cfg.scaled(wideKeys, 8)
	a := newWideWorker(pivot.New("a"), 1000, keys)
	same := newWideWorker(pivot.New("b"), 1000, keys)
	other := newWideWorker(pivot.New("c"), 2000, keys)
	if !reflect.DeepEqual(a.key, same.key) || !reflect.DeepEqual(a.val, same.val) {
		t.Error("wide-groups: the same seed drew different inputs")
	}
	if reflect.DeepEqual(a.key, other.key) && reflect.DeepEqual(a.val, other.val) {
		t.Error("wide-groups: different seeds drew the same inputs")
	}
	p, q := newHBPair(pivot.New("g1"), pivot.New("s1"), 1000, 64), newHBPair(pivot.New("g2"), pivot.New("s2"), 2000, 64)
	if reflect.DeepEqual(p.tenant, q.tenant) && reflect.DeepEqual(p.bytes, q.bytes) {
		t.Error("hb-crossings: different seeds drew the same inputs")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

func TestSummarizeAndSpread(t *testing.T) {
	// Five segments; one slow outlier moves neither the median nor Q1.
	s := summarize([]float64{100, 101, 99, 100, 500})
	if s.med != 100 || s.q1 != 100 || s.q3 != 101 || s.n != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 1}); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps a: union covers 10..60
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
		{Name: "a.inner", ID: 4, Parent: 1, Start: 15, End: 25},
		{Name: "other", ID: 5, Parent: -1, Start: 0, End: 50},
		{Name: "open", ID: 6, Parent: 5, Start: 10, End: 0}, // never closed
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 50, -10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	a := attribute(spans, "round")
	if a.rootCount != 1 || a.rootNS != 100 || a.rootSelf != 40 {
		t.Errorf("attribute: %+v", a)
	}
	if got := a.unexplainedShare(); got != 0.4 {
		t.Errorf("unexplainedShare = %v, want 0.4", got)
	}
	if a.selfNS["a"] != 20 || a.selfNS["a.inner"] != 10 || a.selfNS["other"] != 0 || a.selfNS["open"] != 0 {
		t.Errorf("attribute self times: %v", a.selfNS)
	}
	share := a.layerShare(func(name string) bool { return name == "b" || name == "c" })
	if want := 60.0 / 90.0; math.Abs(share-want) > 1e-12 {
		t.Errorf("layerShare = %v, want %v", share, want)
	}
}

func TestTracerRecordsTrees(t *testing.T) {
	var none *tracer
	if id := none.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	none.end(-1)
	tr := newTracer()
	root := tr.begin("round", -1, 3)
	kid := tr.begin("agent.flush", root, 3)
	tr.end(kid)
	tr.end(root)
	now := tr.t0
	tr.addTree(timed{"request", now, now.Add(100)}, 9, []timed{{"tracepoint.here", now.Add(10), now.Add(60)}})
	spans := tr.snapshot()
	if len(spans) != 4 || spans[1].Parent != root || spans[3].Parent != 2 || spans[3].Unit != 9 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Errorf("span times out of order: %+v", spans[:2])
	}
	if self := selfTimes(spans); self[2] != 50 || self[3] != 50 {
		t.Errorf("request self times = %v", self)
	}
	dir := t.TempDir()
	if err := tr.write(dir, "unit"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/trace-unit.json")
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, spans) {
		t.Errorf("trace file does not round-trip: %v", err)
	}
}
