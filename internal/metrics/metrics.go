// Package metrics collects Pivot Tracing query reports into time series
// and renders experiment output: aligned tables, heatmaps, and sparkline
// pivot tables — the presentation layer for regenerating the paper's
// figures in a terminal.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Collector bins per-interval query reports, merging partial aggregates
// from all processes that reported within the same bin.
type Collector struct {
	op  *advice.EmitOp
	bin time.Duration

	mu   sync.Mutex
	bins map[int64]*advice.Merger
}

// NewCollector returns a collector for a query's emit operation with the
// given bin width (typically the agent reporting interval).
func NewCollector(op *advice.EmitOp, bin time.Duration) *Collector {
	if bin <= 0 {
		bin = time.Second
	}
	return &Collector{op: op, bin: bin, bins: make(map[int64]*advice.Merger)}
}

// binOf maps a report time to its bin index with floor division, so
// negative times (reports stamped before the collector's epoch, or from
// a skewed clock) land in distinct negative bins instead of colliding
// with bin 0 — integer division alone truncates toward zero, folding
// [-bin, bin) into one bin of double width.
func (c *Collector) binOf(t time.Duration) int64 {
	b := int64(t / c.bin)
	if t < 0 && t%c.bin != 0 {
		b--
	}
	return b
}

// OnReport folds one agent report; register it with Installed.OnReport.
// Reports may arrive out of order and several reports may land in the
// same bin: each bin's accumulator merges whatever arrives for it,
// whenever it arrives, and Series orders bins by index at read time.
func (c *Collector) OnReport(r agent.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.binOf(r.Time)
	acc, ok := c.bins[b]
	if !ok {
		acc = advice.NewMerger(c.op, advice.Limits{})
		c.bins[b] = acc
	}
	// The frontend merged this report before notifying listeners, so its
	// shape is already validated; tombstones are not part of a series.
	_, _ = acc.Merge(r.Groups, r.Raws, nil)
}

// Series extracts one time series per group: the group key is the
// concatenation of the key columns' values, the sample is the value
// column. Rate divides each sample by the bin width in seconds (turning
// per-interval sums into per-second throughput).
func (c *Collector) Series(keyCols []int, valCol int, rate bool) map[string][]Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	binIdx := make([]int64, 0, len(c.bins))
	for b := range c.bins {
		binIdx = append(binIdx, b)
	}
	sort.Slice(binIdx, func(i, j int) bool { return binIdx[i] < binIdx[j] })

	out := make(map[string][]Point)
	div := c.bin.Seconds()
	for _, b := range binIdx {
		for _, row := range c.bins[b].Rows() {
			parts := make([]string, len(keyCols))
			for i, k := range keyCols {
				parts[i] = row[k].String()
			}
			key := strings.Join(parts, "/")
			v := row[valCol].Float()
			if rate {
				v /= div
			}
			out[key] = append(out[key], Point{T: time.Duration(b) * c.bin, V: v})
		}
	}
	return out
}

// RenderTable renders rows as an aligned ASCII table.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode sparkline scaled to the maximum.
func Sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	max := vals[0]
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkChars)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkChars) {
			idx = len(sparkChars) - 1
		}
		b.WriteRune(sparkChars[idx])
	}
	return b.String()
}

// shortLabel abbreviates a column name to two characters, preferring the
// suffix after the last dash ("host-A" -> "A").
func shortLabel(s string) string {
	if i := strings.LastIndexByte(s, '-'); i >= 0 && i+1 < len(s) {
		s = s[i+1:]
	}
	if len(s) > 2 {
		s = s[:2]
	}
	return s
}

var shadeChars = []rune(" ░▒▓█")

// Heatmap renders a matrix with unicode shading, scaled to the matrix
// maximum — the presentation of Fig 8d-8g.
func Heatmap(rowNames, colNames []string, val func(r, c int) float64) string {
	max := 0.0
	for r := range rowNames {
		for c := range colNames {
			if v := val(r, c); v > max {
				max = v
			}
		}
	}
	rowW := 0
	for _, n := range rowNames {
		if len(n) > rowW {
			rowW = len(n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s ", rowW, "")
	for _, cn := range colNames {
		fmt.Fprintf(&b, "%-2s ", shortLabel(cn))
	}
	b.WriteByte('\n')
	for r, rn := range rowNames {
		fmt.Fprintf(&b, "%-*s ", rowW, rn)
		for c := range colNames {
			v := val(r, c)
			idx := 0
			if max > 0 {
				idx = int(v / max * float64(len(shadeChars)-1))
			}
			if idx >= len(shadeChars) {
				idx = len(shadeChars) - 1
			}
			ch := shadeChars[idx]
			b.WriteRune(ch)
			b.WriteRune(ch)
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LatencyRecorder accumulates per-operation latencies and completion
// times for client-side workload statistics (Fig 8a, Fig 9a, Table 5).
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []Point // T = completion time, V = latency seconds
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record adds one completed operation.
func (lr *LatencyRecorder) Record(completedAt time.Duration, latency time.Duration) {
	lr.mu.Lock()
	lr.samples = append(lr.samples, Point{T: completedAt, V: latency.Seconds()})
	lr.mu.Unlock()
}

// Count returns the number of recorded operations.
func (lr *LatencyRecorder) Count() int {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return len(lr.samples)
}

// Mean returns the mean latency in seconds (0 if empty).
func (lr *LatencyRecorder) Mean() float64 {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if len(lr.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range lr.samples {
		sum += s.V
	}
	return sum / float64(len(lr.samples))
}

// Throughput bins completions into a per-second ops/sec series.
func (lr *LatencyRecorder) Throughput(bin time.Duration) []Point {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if len(lr.samples) == 0 {
		return nil
	}
	counts := map[int64]int{}
	maxBin := int64(0)
	for _, s := range lr.samples {
		b := int64(s.T / bin)
		counts[b]++
		if b > maxBin {
			maxBin = b
		}
	}
	out := make([]Point, 0, maxBin+1)
	for b := int64(0); b <= maxBin; b++ {
		out = append(out, Point{
			T: time.Duration(b) * bin,
			V: float64(counts[b]) / bin.Seconds(),
		})
	}
	return out
}

// Latencies returns all samples (completion time, latency seconds).
func (lr *LatencyRecorder) Latencies() []Point {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return append([]Point(nil), lr.samples...)
}
