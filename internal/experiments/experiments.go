// Package experiments regenerates the paper's evaluation: every figure and
// table has a Run function returning structured results plus a Render
// method producing terminal output. Each runs at one of two sizings: full
// (the default) or short (scaled down for tests and quick looks). Paper
// lists the steps in report order; `ptbench -paper` prints them, and
// DESIGN.md maps each to its paper artifact.
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

// Figure is one step's result, rendered as terminal text.
type Figure interface{ Render() string }

// Step is one figure or table of the paper's evaluation.
type Step struct {
	ID, Name string
	Run      func(short bool) (Figure, error)
}

// Paper lists the evaluation's steps in report order.
func Paper() []Step {
	return []Step{
		{"fig3", "Fig 3", func(bool) (Figure, error) { return RunFig3() }},
		{"fig1", "Fig 1", func(short bool) (Figure, error) { return RunFig1(short) }},
		{"fig6", "Fig 6 / tuple traffic", func(short bool) (Figure, error) { return RunTraffic(short) }},
		{"fig8-buggy", "Fig 8 (buggy)", func(short bool) (Figure, error) { return RunFig8(short, false) }},
		{"fig8-fixed", "Fig 8 (fixed)", func(short bool) (Figure, error) { return RunFig8(short, true) }},
		{"fig9", "Fig 9", func(short bool) (Figure, error) { return RunFig9(short) }},
		{"rogue-gc", "§6.2 rogue GC", func(short bool) (Figure, error) { return RunGC(short) }},
		{"nn-lock", "§6.2 NameNode locking", func(short bool) (Figure, error) { return RunNNLock(short) }},
		{"table5", "Table 5", func(short bool) (Figure, error) { return RunTable5(short) }},
	}
}

// size picks a step's value at the full or the short sizing.
func size[T any](short bool, full, quick T) T {
	if short {
		return quick
	}
	return full
}

// testbed returns the paper's testbed configuration at the given sizing:
// eight worker hosts, or four when short.
func testbed(short bool) workload.TestbedConfig {
	cfg := workload.DefaultTestbedConfig()
	cfg.Hosts = size(short, 8, 4)
	return cfg
}

// simulate runs body as the root goroutine of a fresh virtual-time
// simulation and returns body's error once the simulation has unwound. A
// panic in any of the simulation's goroutines — a closed-loop workload
// whose op failed, say — is returned as the error.
func simulate(body func(env *simtime.Env) error) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = fmt.Errorf("%v", pv)
		}
	}()
	env := simtime.NewEnv()
	env.Run(func() { err = body(env) })
	return err
}

// installAll installs the queries on the testbed's frontend, in order.
func installAll(tb *workload.Deployment, texts ...string) ([]*core.Installed, error) {
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
func sampleNetTx(env *simtime.Env, tb *workload.Deployment) map[string][]metrics.Point {
	samples := make(map[string][]metrics.Point)
	env.Go(func() {
		prev := make(map[string]float64)
		for !env.Done() {
			env.Sleep(time.Second)
			for _, host := range tb.Workers {
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
