package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/simtime"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TrafficResult compares the two evaluation strategies.
type TrafficResult struct {
	// Optimized strategy (Fig 6b): per-DataNode tuples emitted to the
	// process-local aggregator versus rows actually reported to the
	// frontend (the §4 claim: ~600/s collapses to ~6/s per DataNode).
	OptEmittedPerDNPerSec  float64
	OptReportedPerDNPerSec float64

	// Baseline strategy (Fig 6a): tuples shipped to the central evaluator
	// per DataNode per second (every crossing).
	BaseEmittedPerDNPerSec float64

	// ResultsMatch records whether both strategies produced identical
	// result rows.
	ResultsMatch       bool
	OptRows, BaseRows  []tuple.Tuple
	BaselineBaggageAvg float64 // average baggage bytes per RPC, baseline run
}

const trafficQuery = `From incr In DataNodeMetrics.incrBytesRead
Join cl In First(ClientProtocols) On cl -> incr
GroupBy cl.procName
Select cl.procName, SUM(incr.delta)`

// RunTraffic executes the Fig 6 comparison on identical workloads: the same
// Q2-style query evaluated with Pivot Tracing's optimized in-baggage
// strategy and with the unoptimized global-evaluation strategy.
func RunTraffic(short bool) (*TrafficResult, error) {
	res := &TrafficResult{}
	ops := size(short, 400, 150) // per reader

	// Optimized (in-baggage) run: the query is installed before the
	// readers' processes start.
	err := simulate(func(env *simtime.Env) error {
		tb := workload.NewTestbed(env, testbed(short))
		h, err := tb.C.PT.Install(trafficQuery)
		if err != nil {
			return err
		}
		ws, err := trafficReaders(tb)
		if err != nil {
			return err
		}
		start := env.Now()
		runWorkloads(env, ws, ops)
		secs := (env.Now() - start).Seconds()
		env.Sleep(2 * time.Second) // final reporting intervals
		tb.C.FlushAgents()
		res.OptRows = h.Rows()

		var emitted, reported int64
		for _, dn := range tb.DNs {
			st := dn.Proc.Agent.Stats()
			emitted += st.TuplesEmitted
			reported += st.RowsReported
		}
		res.OptEmittedPerDNPerSec = float64(emitted) / float64(len(tb.DNs)) / secs
		res.OptReportedPerDNPerSec = float64(reported) / float64(len(tb.DNs)) / secs
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Baseline (global evaluation) run.
	err = simulate(func(env *simtime.Env) error {
		tb := workload.NewTestbed(env, testbed(short))
		q, err := query.Parse(trafficQuery)
		if err != nil {
			return err
		}
		ev, err := baseline.New(q, tb.C.PT.Registry())
		if err != nil {
			return err
		}
		ws, err := trafficReaders(tb)
		if err != nil {
			return err
		}
		// Weave after workload processes exist (so every process that
		// defines the tracepoints has a probe) and before any ops run.
		for tp, probe := range ev.Probes() {
			tb.C.WeaveAll(tp, probe)
		}
		start := env.Now()
		runWorkloads(env, ws, ops)
		secs := (env.Now() - start).Seconds()
		if res.BaseRows, err = ev.Evaluate(); err != nil {
			return err
		}
		tuples, bag := ev.Stats()
		res.BaseEmittedPerDNPerSec = float64(tuples) / float64(len(tb.DNs)) / secs
		if tuples > 0 {
			res.BaselineBaggageAvg = float64(bag) / float64(tuples)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.ResultsMatch = bytes.Equal(oracle.Canonical(res.OptRows), oracle.Canonical(res.BaseRows))
	return res, nil
}

// trafficReaders starts the four reader processes and creates their
// datasets of 16 files each.
func trafficReaders(tb *workload.Deployment) ([]*workload.Workload, error) {
	var ws []*workload.Workload
	for i := 0; i < 4; i++ {
		w, err := tb.NewFSRead(tb.Workers[i%len(tb.Workers)],
			fmt.Sprintf("FSREAD-%d", i), 4e6, 16, int64(i+1))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runWorkloads performs exactly n ops per workload, concurrently, so both
// evaluation strategies observe identical executions.
func runWorkloads(env *simtime.Env, ws []*workload.Workload, n int) {
	wg := env.NewWaitGroup()
	for _, w := range ws {
		wg.Add(1)
		env.Go(func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := w.RunOnce(i); err != nil {
					return
				}
			}
		})
	}
	wg.Wait()
}

// Render summarizes the comparison.
func (r *TrafficResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Fig 6: tuple traffic, optimized vs global evaluation ===\n")
	fmt.Fprintf(&b, "optimized:  %8.1f tuples/s emitted per DataNode -> %6.1f rows/s reported (%.0fx reduction)\n",
		r.OptEmittedPerDNPerSec, r.OptReportedPerDNPerSec,
		safeDiv(r.OptEmittedPerDNPerSec, r.OptReportedPerDNPerSec))
	fmt.Fprintf(&b, "baseline:   %8.1f tuples/s shipped per DataNode to the central evaluator\n",
		r.BaseEmittedPerDNPerSec)
	fmt.Fprintf(&b, "optimized vs baseline global traffic: %.0fx less\n",
		safeDiv(r.BaseEmittedPerDNPerSec, r.OptReportedPerDNPerSec))
	fmt.Fprintf(&b, "results identical: %v\n", r.ResultsMatch)
	fmt.Fprintf(&b, "baseline avg causal-metadata baggage per RPC: %.0f bytes (constant-size)\n",
		r.BaselineBaggageAvg)
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
