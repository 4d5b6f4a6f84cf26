package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/scenario"
)

// sim-herd: the simulator substrate. ptbench's "herd" scenario — clients
// hammering one NameNode with metadata RPCs — run in-process through
// scenario.Harness at the harness's short sizing (64 hosts, 96 clients,
// 11 520 RPCs; the full 1024-host run takes longer than a whole benchmark
// run may), once per segment. simtime, netsim and the cluster RPC layer do
// nearly all the work and the tracer pipeline almost none, so this is
// where a scheduler or event-queue change shows, and where a
// tracer-pipeline optimisation should show nothing.
const (
	simScenario = "herd"
	simRequests = 96 * 120 // the short sizing's clients x ops
)

// checkpointClock stamps the wall time of the harness's progress lines
// (scenario.Harness.Log receives one line when the scenario starts and one
// per checkpoint verdict). From the start line to the first verdict is
// this workload's visible latency: how long after a scenario — deployment,
// queries, load — is started its first query result has been flushed,
// merged, read with Rows() and found to satisfy the checkpoint. (The
// real-path workloads measure emit -> visible on a warm deployment; the
// harness offers no event for the last emit, so the simulator workload
// measures start -> first visible result.)
type checkpointClock struct {
	started, first time.Time
}

func (c *checkpointClock) Write(p []byte) (int, error) {
	switch line := string(p); {
	case strings.HasPrefix(line, "=== "):
		c.started = time.Now()
	case strings.Contains(line, "checkpoint ") && c.first.IsZero():
		c.first = time.Now()
	}
	return len(p), nil
}

type simWorkload struct {
	cfg      config
	o        observations
	runs     int64
	requests int64
	failed   int64
	tuples   int64
	reports  int64
}

func newSim(cfg config) workload { return &simWorkload{cfg: cfg} }

func (w *simWorkload) obs() *observations   { return &w.o }
func (w *simWorkload) blockingRoot() string { return "scenario" }

// runScenario runs one scenario at the short sizing and returns its
// result and wall time. clock may be nil.
func runScenario(id string, seed int64, clock *checkpointClock) (*scenario.Result, time.Duration) {
	h := &scenario.Harness{Seed: seed, Short: true}
	if clock != nil {
		h.Log = clock
	}
	start := time.Now()
	res := h.RunScenario(scenario.ByID(id))
	return res, time.Since(start)
}

// once runs the herd and checks it: every checkpoint passed, no client
// error, every RPC accounted for.
func (w *simWorkload) once() (time.Duration, error) {
	clock := &checkpointClock{}
	res, wall := runScenario(simScenario, w.cfg.seed, clock)
	w.runs++
	w.requests += res.Requests
	w.tuples += res.Tuples
	w.reports += res.Reports
	var bad int64
	for _, cp := range res.Checkpoints {
		if !cp.Passed {
			bad++
		}
	}
	bad += res.ClientErrors
	if res.Requests != simRequests {
		bad++
	}
	if !res.Passed && bad == 0 {
		bad++
	}
	if clock.started.IsZero() || clock.first.IsZero() {
		bad++
	}
	if bad > 0 {
		w.failed += bad
		return wall, fmt.Errorf("sim-herd: run %d: passed=%v err=%q client errors=%d requests=%d checkpoints=%+v",
			w.runs, res.Passed, res.Err, res.ClientErrors, res.Requests, res.Checkpoints)
	}
	w.o.visibleMS = append(w.o.visibleMS, float64(clock.first.Sub(clock.started))/1e6)
	return wall, nil
}

// setup is one whole warm-up run: page in the simulator, grow the heap.
func (w *simWorkload) setup() error {
	_, err := w.once()
	w.o.visibleMS = w.o.visibleMS[:0]
	return err
}

func (w *simWorkload) segment(tr *tracer) (int64, time.Duration) {
	root := tr.begin("scenario", -1, w.runs)
	s := tr.begin("scenario.harness", root, w.runs)
	wall, err := w.once()
	tr.end(s)
	tr.end(root)
	if err != nil {
		w.o.note(err)
	}
	return simRequests, wall
}

func (w *simWorkload) finish() (attempted, failed int64) { return w.requests, w.failed }

func (w *simWorkload) counters(m map[string]float64) {
	m["agent.tuples_emitted"] = float64(w.tuples)
	m["agent.reports"] = float64(w.reports)
}

func (w *simWorkload) close() {}
