package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one run's parameters. Everything a workload generates is a
// function of seed and scale; seconds only decides how many of its fixed
// segments run.
type config struct {
	seed    int64
	seconds float64
	scale   float64
	traced  bool
	// segments, when > 0, runs exactly that many segments instead of
	// running for seconds: fixed work, so counts repeat exactly (tests).
	segments int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// outDir receives trace-<workload>.json after a traced run.
	outDir string
}

// scaled applies the run's scale to a full-size count, never below min.
func (c config) scaled(n, min int) int {
	v := int(math.Round(float64(n) * c.scale))
	if v < min {
		return min
	}
	return v
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// observations are what a workload gathers while it runs, beyond the
// per-segment figures measure() takes itself.
type observations struct {
	visibleMS []float64 // emit -> Rows()-visible, one sample per flush point
	installMS []float64 // Install call -> first non-empty Rows(), per probe
	bagBytes  int64     // bytes returned by Inject, summed over all requests
	bagTuples int64     // baggage tuples at Inject, summed over traced requests
	bagProbed int64     // traced requests contributing to bagTuples
	// overheadA/overheadB are ns/request of the same single-generator
	// loop with the workload's queries installed (A) and with none (B).
	overheadA, overheadB []float64
	backlogMax           int   // flush points queued for the reporter
	flushFailures        int64 // flush points that timed out or did not confirm
	firstErr             error
}

func (o *observations) fail(err error) {
	o.flushFailures++
	o.note(err)
}

// note keeps the first error for the run's log.
func (o *observations) note(err error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// realPath is what the three real-deployment workloads share.
type realPath struct {
	cfg config
	o   observations
	d   *deployment
}

func (r *realPath) obs() *observations            { return &r.o }
func (r *realPath) counters(m map[string]float64) { r.d.counters(m) }

func (r *realPath) close() {
	if r.d != nil {
		r.d.close()
	}
}

// dropFailures counts every tuple, row or report an agent gave up as a
// failure: the workloads are sized so that nothing is dropped.
func (r *realPath) dropFailures(workload string) int64 {
	n := r.d.dropped()
	if n != 0 {
		r.o.note(fmt.Errorf("%s: agents dropped %d", workload, n))
	}
	return n
}

// generators is how many goroutines issue requests: one fewer than the
// cores, leaving one for the reporter, and never more than there are
// independent units (pairs or workers) to drive.
func generators(units int) int {
	g := runtime.NumCPU() - 1
	if g < 1 {
		g = 1
	}
	if g > units {
		g = units
	}
	return g
}

// fanOut runs fn once per unit on generators(units) goroutines — unit u on
// goroutine u mod g, so what a unit does never depends on the core count —
// and returns when all have finished.
func fanOut(units int, fn func(unit int)) {
	g := generators(units)
	var wg sync.WaitGroup
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for u := gi; u < units; u += g {
				fn(u)
			}
		}(gi)
	}
	wg.Wait()
}

// workload is one benchmark workload. measure() drives it.
type workload interface {
	// setup brings the system up, installs the queries, confirms the
	// weave and warms caches; its wall time is setup_s.
	setup() error
	// segment runs one fixed, seed-determined unit of work and returns
	// the requests issued and the wall time the generators took. With a
	// non-nil tracer it records spans around its calls into the layers.
	segment(tr *tracer) (requests int64, wall time.Duration)
	// finish waits for outstanding flush points and compares the system's
	// results with the reference the generator computed; it returns how
	// many requests were attempted and how many checks failed.
	finish() (attempted, failed int64)
	// obs exposes what the workload observed.
	obs() *observations
	// blockingRoot names the root span of the workload's blocking path.
	blockingRoot() string
	// counters adds the workload's per-layer counts to m.
	counters(m map[string]float64)
	close()
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "hb-crossings":
		return newHB(cfg), nil
	case "wide-groups":
		return newWide(cfg), nil
	case "tree-fanin":
		return newTree(cfg), nil
	case "sim-herd":
		return newSim(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"hb-crossings", "wide-groups", "tree-fanin", "sim-herd"}

// segStat is what measure() records around one segment.
type segStat struct {
	traced     bool
	requests   int64
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
}

// minSegments keeps the median-of-segments meaningful on a slow box.
const minSegments = 5

// layerBudgetShare is the part of a traced run's seconds spent timing
// single layers (layers.go); the traced workload pass gets the rest.
const layerBudgetShare = 0.4

// measure runs one workload once and returns its result: the end-to-end
// metrics from an untraced run, the per-layer metrics from a traced one.
func measure(name string, cfg config, log io.Writer) (*result, error) {
	var (
		w      workload
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, cfg); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s (seed %d): set-up: %w", name, cfg.seed, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var (
		segs          []segStat
		heapMax       uint64
		goroutinesMax int
		ms            runtime.MemStats
	)
	limit := cfg.seconds
	if cfg.traced {
		limit *= 1 - layerBudgetShare
	}
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.segments > 0 {
			if i >= cfg.segments {
				break
			}
		} else if i >= minSegments && time.Since(start).Seconds() >= limit {
			break
		}
		// A traced run alternates traced and untraced segments, so the
		// tracing overhead is measured inside one run.
		var segTr *tracer
		if i%2 == 0 {
			segTr = tr
		}
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		requests, wall := w.segment(segTr)
		runtime.ReadMemStats(&ms)
		segs = append(segs, segStat{
			traced: segTr != nil, requests: requests, wall: wall,
			mallocs: ms.Mallocs - mallocs, allocBytes: ms.TotalAlloc - bytes,
		})
		if ms.HeapInuse > heapMax {
			heapMax = ms.HeapInuse
		}
		if n := runtime.NumGoroutine(); n > goroutinesMax {
			goroutinesMax = n
		}
	}
	attempted, failed := w.finish()
	run := runStats{segs: segs, cpu: cpuSeconds() - cpu0, heapMax: heapMax, goroutinesMax: goroutinesMax}
	o := w.obs()
	failed += o.flushFailures

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !cfg.traced {
		fmt.Fprintf(log, "%s seed=%d: %d segments, %d requests, %d visible samples, %d set-ups\n",
			name, cfg.seed, len(segs), attempted, len(o.visibleMS), len(setups))
		res.fill(endToEnd, endToEndValues(run, o, setups, log))
	} else {
		spans := tr.snapshot()
		att := attribute(spans, w.blockingRoot())
		fmt.Fprintf(log, "%s seed=%d: attribution over %d spans\n", name, cfg.seed, len(spans))
		att.print(log)
		if w.blockingRoot() != "visible" {
			attribute(spans, "visible").print(log)
		}
		if err := tr.write(cfg.outDir, name); err != nil {
			return nil, err
		}
		layer := perLayerValues(run, o, att, attempted, failed)
		layerMetrics(layer, cfg, name == "sim-herd")
		w.counters(layer)
		if attempted > 0 {
			layer["bus.wire_bytes_per_request"] = layer["bus.server_bytes"] / float64(attempted)
		}
		res.fill(perLayer, layer)
	}
	if o.firstErr != nil {
		fmt.Fprintf(log, "%s seed=%d: FAILED: %v\n", name, cfg.seed, o.firstErr)
	}
	return res, nil
}

// runStats is what measure() itself recorded around a run's segments.
type runStats struct {
	segs          []segStat
	cpu           float64 // process CPU seconds over the segments
	heapMax       uint64
	goroutinesMax int
}

// rates returns requests per second of the traced or the untraced segments.
func (r runStats) rates(traced bool) []float64 {
	var xs []float64
	for _, s := range r.segs {
		if s.traced == traced {
			xs = append(xs, float64(s.requests)/s.wall.Seconds())
		}
	}
	return xs
}

// perRequest returns f(segment) / requests for every segment.
func (r runStats) perRequest(f func(segStat) float64) []float64 {
	xs := make([]float64, len(r.segs))
	for i, s := range r.segs {
		xs[i] = f(s) / float64(s.requests)
	}
	return xs
}

// endToEndValues computes the end-to-end metrics of an untraced run and
// logs each timing's quartiles beside its median.
func endToEndValues(run runStats, o *observations, setups []float64, log io.Writer) map[string]float64 {
	rps := summarize(run.rates(false))
	vis := summarize(o.visibleMS)
	allocs := summarize(run.perRequest(func(s segStat) float64 { return float64(s.mallocs) }))
	abytes := summarize(run.perRequest(func(s segStat) float64 { return float64(s.allocBytes) }))
	fmt.Fprintf(log, "  requests_per_s          q1=%.0f med=%.0f q3=%.0f\n", rps.q1, rps.med, rps.q3)
	fmt.Fprintf(log, "  visible_ms              q1=%.3f med=%.3f q3=%.3f p95=%.3f\n", vis.q1, vis.med, vis.q3, percentile(o.visibleMS, 0.95))
	fmt.Fprintf(log, "  allocs_per_request      q1=%.3f med=%.3f q3=%.3f\n", allocs.q1, allocs.med, allocs.q3)
	fmt.Fprintf(log, "  alloc_bytes_per_request q1=%.1f med=%.1f q3=%.1f\n", abytes.q1, abytes.med, abytes.q3)
	return map[string]float64{
		"setup_s":                 median(setups),
		"requests_per_s":          rps.med,
		"visible_p50_ms":          vis.med,
		"allocs_per_request":      allocs.med,
		"alloc_bytes_per_request": abytes.med,
	}
}

// perLayerValues computes the per-layer metrics a traced run takes from
// its own bookkeeping; layers.go and the workload's counters add the rest.
func perLayerValues(run runStats, o *observations, att attribution, attempted, failed int64) map[string]float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	layer := map[string]float64{
		"process.cpu_s":                       run.cpu,
		"process.gc_cpu_share":                ms.GCCPUFraction,
		"process.peak_rss_mb":                 peakRSSMB(),
		"process.heap_inuse_mb_max":           float64(run.heapMax) / (1 << 20),
		"process.goroutines_max":              float64(run.goroutinesMax),
		"bench.attribution_unexplained_share": att.unexplainedShare(),
		"bench.reporter_backlog_max":          float64(o.backlogMax),
		"bench.visible_p95_ms":                percentile(o.visibleMS, 0.95),
		"bench.install_to_first_row_ms":       median(o.installMS),
		"bench.overhead_ns_per_request":       median(o.overheadA) - median(o.overheadB),
	}
	if untraced := median(run.rates(false)); untraced > 0 {
		layer["bench.trace_overhead_share"] = 1 - median(run.rates(true))/untraced
	}
	if attempted > 0 {
		layer["bench.failed_share"] = float64(failed) / float64(attempted)
		layer["baggage.bytes_per_request"] = float64(o.bagBytes) / float64(attempted)
	}
	if o.bagProbed > 0 {
		layer["baggage.tuples_per_request"] = float64(o.bagTuples) / float64(o.bagProbed)
	}
	return layer
}

// fill reports every metric of defs, taking 0 for one values lacks.
func (r *result) fill(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
}

// printMetrics lists a result's metrics by name with their units.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-42s %16.4f %s\n", name, m.Value, m.Unit)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
