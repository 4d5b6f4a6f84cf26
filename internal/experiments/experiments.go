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

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// simulate runs body as the root goroutine of a fresh virtual-time
// simulation and returns body's error once the simulation has unwound.
func simulate(body func(env *simtime.Env) error) error {
	env := simtime.NewEnv()
	var err error
	env.Run(func() { err = body(env) })
	return err
}

// installAll installs the queries on the testbed's frontend, in order.
func installAll(tb *workload.Testbed, texts ...string) ([]*core.Installed, error) {
	hs := make([]*core.Installed, len(texts))
	for i, text := range texts {
		h, err := tb.C.PT.Install(text)
		if err != nil {
			return nil, fmt.Errorf("install %q: %w", text, err)
		}
		hs[i] = h
	}
	return hs, nil
}

// collect streams a query's reports into a collector binned at the agents'
// one-second reporting interval.
func collect(q *core.Installed) *metrics.Collector {
	col := metrics.NewCollector(q.Plan.Emit.Emit, time.Second)
	q.OnReport(col.OnReport)
	return col
}

// sampleNetTx samples every worker host's network transmit throughput
// once per virtual second until the simulation ends; the returned series
// fill in as it runs.
func sampleNetTx(env *simtime.Env, tb *workload.Testbed) map[string][]metrics.Point {
	samples := make(map[string][]metrics.Point)
	env.Go(func() {
		prev := make(map[string]float64)
		for !env.Done() {
			env.Sleep(time.Second)
			for _, host := range tb.Hosts {
				served := tb.C.Net.LinkServed(host + ".tx")
				samples[host] = append(samples[host], metrics.Point{T: env.Now(), V: served - prev[host]})
				prev[host] = served
			}
		}
	})
	return samples
}

// fmtBytesRate renders a bytes/second rate as MB/s.
func fmtBytesRate(v float64) string {
	return fmt.Sprintf("%.1f MB/s", v/1e6)
}

// fmtSeconds renders seconds compactly.
func fmtSeconds(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// sortedKeys returns a map's keys in ascending order, so rendering never
// depends on map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderSeries renders a blank line, then one line per key: name, mean
// rate, sparkline.
func renderSeries(series map[string][]metrics.Point, unit func(float64) string) string {
	var b strings.Builder
	b.WriteByte('\n')
	keys := sortedKeys(series)
	w := 0
	for _, k := range keys {
		w = max(w, len(k))
	}
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
