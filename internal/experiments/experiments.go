// Package experiments regenerates the paper's evaluation: every figure and
// table has a Run function returning structured results plus a Render
// method producing terminal output. The cmd/ tools and the repository's
// benchmark suite are thin wrappers around this package; DESIGN.md maps
// each experiment to its paper artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// fmtBytesRate renders a bytes/second rate as MB/s.
func fmtBytesRate(v float64) string {
	return fmt.Sprintf("%.1f MB/s", v/1e6)
}

// fmtDuration renders seconds compactly.
func fmtSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// renderSeries renders one line per key: name, mean rate, sparkline.
func renderSeries(title string, series map[string][]metrics.Point, unit func(float64) string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	keys := make([]string, 0, len(series))
	w := 0
	for k := range series {
		keys = append(keys, k)
		if len(k) > w {
			w = len(k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		pts := series[k]
		vals := make([]float64, len(pts))
		sum := 0.0
		for i, p := range pts {
			vals[i] = p.V
			sum += p.V
		}
		mean := 0.0
		if len(pts) > 0 {
			mean = sum / float64(len(pts))
		}
		fmt.Fprintf(&b, "  %-*s %12s  %s\n", w, k, unit(mean), metrics.Sparkline(vals))
	}
	return b.String()
}
