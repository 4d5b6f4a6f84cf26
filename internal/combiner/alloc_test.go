//go:build !race

package combiner

// Allocation-regression tests. Excluded under -race: the race detector's
// instrumentation adds bookkeeping allocations that would fail these
// assertions for reasons unrelated to the code under test.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/tuple"
)

// TestAllocCombinerIntervalFlatInGroups: a steady combiner interval — a
// frame of 8 queries over the keys of the interval before, merged in and
// flushed upstream — builds its rows in the ones the interval before
// forwarded, so what it allocates does not grow with the groups it
// carries: the same count at 1 024 and at 8 192 groups per query, beside
// the one object each upstream frame costs (its boxed ReportBatch; wider
// reports split into more frames), and no more bytes than the frames add.
// A combiner that allocates each interval's rows anew allocates as many
// objects at both widths, but eight times the bytes.
func TestAllocCombinerIntervalFlatInGroups(t *testing.T) {
	interval := func(groups int) (allocs, bytes float64) {
		const queries = 8
		reports := make([]agent.Report, queries)
		for q := range reports {
			gs := make([]*advice.Group, groups)
			for k := range gs {
				key := fmt.Sprintf("key-%05d", k)
				gs[k] = &advice.Group{Key: key, Rep: tuple.Tuple{tuple.String(key)}, States: []agg.State{agg.Make(agg.Count)}}
			}
			reports[q] = agent.Report{QueryID: fmt.Sprintf("q%d", q), Host: "h", ProcName: "w", Groups: gs}
		}
		var frame any = agent.ReportBatch{Reports: reports}
		b := bus.New()
		c := New(nil, "rack0", "combiner", b, Config{Subscribe: []string{"part"}, Upstream: RootTopic})
		defer c.Close()
		n := 0
		b.Subscribe(RootTopic, func(any) { n++ })
		run := func() {
			b.Publish("part", frame)
			c.Flush()
		}
		const runs = 5
		allocs = testing.AllocsPerRun(runs, run)
		frames := float64(n) / (runs + 1) // AllocsPerRun runs once more to warm up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs - frames, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	narrow, narrowBytes := interval(1024)
	wide, wideBytes := interval(8192)
	if narrow != wide {
		t.Errorf("a steady interval allocates %.1f objects beside its frames at 1024 groups per query and %.1f at 8192, want the same", narrow, wide)
	}
	if wideBytes > 2*narrowBytes+1024 {
		t.Errorf("a steady interval allocates %.0f bytes at 1024 groups per query and %.0f at 8192, want no growth with the groups", narrowBytes, wideBytes)
	}
}
