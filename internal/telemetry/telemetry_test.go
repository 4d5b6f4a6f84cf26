package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every positive value must satisfy BucketUpper(i-1) < v <= BucketUpper(i).
	for _, v := range []int64{1, 2, 3, 4, 5, 1000, 1 << 20, math.MaxInt64} {
		i := BucketOf(v)
		if v > BucketUpper(i) {
			t.Errorf("value %d above upper bound %d of its bucket %d", v, BucketUpper(i), i)
		}
		if i > 0 && v <= BucketUpper(i-1) {
			t.Errorf("value %d fits in the previous bucket %d (upper %d)", v, i-1, BucketUpper(i-1))
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if got := BucketUpper(0); got != 0 {
		t.Errorf("BucketUpper(0) = %d", got)
	}
	if got := BucketUpper(1); got != 1 {
		t.Errorf("BucketUpper(1) = %d, want 1", got)
	}
	if got := BucketUpper(10); got != 1023 {
		t.Errorf("BucketUpper(10) = %d, want 1023", got)
	}
	if got := BucketUpper(63); got != math.MaxInt64 {
		t.Errorf("BucketUpper(63) = %d, want MaxInt64", got)
	}
	if got := BucketUpper(64); got != math.MaxInt64 {
		t.Errorf("BucketUpper(64) = %d, want MaxInt64", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 1, 3, 100, -5, 0} {
		h.Observe(v)
	}
	v := h.snapshot()
	if v.Count != 6 {
		t.Fatalf("count = %d, want 6", v.Count)
	}
	if v.Sum != 100 {
		t.Fatalf("sum = %d, want 100", v.Sum)
	}
	if v.Buckets[0] != 2 { // -5 and 0
		t.Errorf("bucket 0 = %d, want 2", v.Buckets[0])
	}
	if v.Buckets[1] != 2 { // two 1s
		t.Errorf("bucket 1 = %d, want 2", v.Buckets[1])
	}
	if v.Buckets[2] != 1 { // 3
		t.Errorf("bucket 2 = %d, want 1", v.Buckets[2])
	}
	if v.Buckets[7] != 1 { // 100 in [64,128)
		t.Errorf("bucket 7 = %d, want 1", v.Buckets[7])
	}
	if v.Max() != 127 {
		t.Errorf("max = %d, want 127", v.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	v := h.snapshot()
	// p50 of 1..100 is ~50; bucket upper bound gives 63.
	if got := v.Quantile(0.50); got != 63 {
		t.Errorf("p50 = %d, want 63", got)
	}
	if got := v.Quantile(0.99); got != 127 {
		t.Errorf("p99 = %d, want 127", got)
	}
	if got := v.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
	if got := (HistValue{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
}

func TestSourceWritesIntoEverySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("own").Add(2)
	var n int64
	r.Source(func(s *Snapshot) {
		n++
		s.Counters["sourced"] = n
	})
	for want := int64(1); want <= 2; want++ {
		s := r.Snapshot()
		if s.Counters["own"] != 2 || s.Counters["sourced"] != want {
			t.Errorf("snapshot %d counters = %v", want, s.Counters)
		}
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("net")
			h := r.Histogram("vals")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(seed + int64(i))
			}
		}(int64(w * 1000))
	}
	wg.Wait()

	s := r.Snapshot()
	if s.Counters["hits"] != workers*perWorker {
		t.Errorf("counter = %d, want %d", s.Counters["hits"], workers*perWorker)
	}
	if s.Gauges["net"] != 0 {
		t.Errorf("gauge = %d, want 0", s.Gauges["net"])
	}
	if s.Hists["vals"].Count != workers*perWorker {
		t.Errorf("hist count = %d, want %d", s.Hists["vals"].Count, workers*perWorker)
	}
}

func TestRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus.published").Add(42)
	r.Gauge("bus.conns").Add(3)
	r.Histogram("weave.ns").Observe(1500)
	out := r.Snapshot().Render()
	for _, want := range []string{"metric", "bus.published", "42", "bus.conns", "3", "histogram", "weave.ns", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// All scalar table lines align to the same width.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("render produced %d lines:\n%s", len(lines), out)
	}
	if (Snapshot{}).Render() != "" {
		t.Error("empty snapshot should render to empty string")
	}
}

func BenchmarkCounter(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var v int64
		for pb.Next() {
			v++
			h.Observe(v)
		}
	})
}
