package scenario

import (
	"fmt"
	"io"
	"time"

	"repro/internal/simtime"
)

// Result is the outcome of one scenario execution. Fields with json tags
// are exactly the deterministic ones: two runs with the same (scenario,
// seed, hosts, short) flags must produce byte-identical JSON. Wall time
// and agent report/batch counts vary run to run and stay console-only.
type Result struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Seed   int64  `json:"seed"`
	Hosts  int    `json:"hosts"`
	Short  bool   `json:"short,omitempty"`
	Passed bool   `json:"passed"`
	// Err is a scenario-body error (infrastructure failure, not a
	// checkpoint verdict).
	Err string `json:"err,omitempty"`

	VirtualMS    int64 `json:"virtual_ms"`
	Procs        int   `json:"procs"`
	Requests     int64 `json:"requests"`
	ClientErrors int64 `json:"client_errors"`
	Tuples       int64 `json:"tuples"`

	Checkpoints []CheckpointResult `json:"checkpoints"`

	// Console-only: wall time varies by machine, and report batching —
	// hence also flow counts and network byte totals, which include the
	// agent report traffic — depends on how tuples straddle interval
	// boundaries at runtime.
	WallMS   int64 `json:"-"`
	Reports  int64 `json:"-"`
	Flows    int64 `json:"-"`
	NetBytes int64 `json:"-"`
}

// Harness runs scenarios and collects results.
type Harness struct {
	// Seed drives all scenario randomness (every failure replays with
	// the same seed).
	Seed int64
	// Hosts overrides the per-scenario host count when > 0.
	Hosts int
	// Short selects the reduced (CI -race) sizing.
	Short bool
	// Log receives progress lines; nil is quiet.
	Log io.Writer
}

func (h *Harness) logf(format string, args ...any) {
	if h.Log != nil {
		fmt.Fprintf(h.Log, format+"\n", args...)
	}
}

// RunScenario executes one scenario in a fresh simulation and returns
// its result. The root goroutine deploys the substrate, runs the body and,
// if the body returns nil, settles to the horizon. A panic in the scenario
// body or in any goroutine it started is captured as a failed result, not
// propagated; either way no goroutine of the simulation outlives the call.
func (h *Harness) RunScenario(s *Scenario) *Result {
	hosts := DefaultHosts
	if h.Short {
		hosts = ShortHosts
	}
	if h.Hosts > 0 {
		hosts = h.Hosts
	}
	res := &Result{ID: s.ID, Name: s.Name, Seed: h.Seed, Hosts: hosts, Short: h.Short}
	h.logf("=== %s (%s): %d hosts, seed %d", s.ID, s.Name, hosts, h.Seed)
	start := time.Now()

	env := simtime.NewEnv()
	r := &Run{S: s, Seed: h.Seed, Hosts: hosts, Short: h.Short, Env: env}
	if h.Log != nil {
		r.logf = h.logf
	}
	var runErr error
	func() {
		// Env.Run tears the simulation down and re-raises a panic from any
		// managed goroutine — the scenario body (e.g. a malformed query) or
		// a client it started; capture it as a failed result rather than
		// killing the harness.
		defer func() {
			if p := recover(); p != nil {
				runErr = fmt.Errorf("scenario panic: %v", p)
			}
		}()
		env.Run(func() {
			r.Deployment = deploy(r)
			if runErr = s.Run(r); runErr == nil {
				r.SettleTo(r.horizon())
			}
		})
	}()

	res.VirtualMS = int64(env.Now() / time.Millisecond)
	res.WallMS = time.Since(start).Milliseconds()
	res.Checkpoints = r.checkpoints
	res.Requests = r.Requests()
	res.ClientErrors = r.clientErrs
	if r.Deployment != nil {
		for _, p := range r.C.Procs() {
			res.Procs++
			if p.Agent != nil {
				st := p.Agent.Stats()
				res.Tuples += st.TuplesEmitted
				res.Reports += st.Reports
			}
		}
		flows, bytes := r.C.Net.Stats()
		res.Flows = flows
		res.NetBytes = int64(bytes)
	}
	res.Passed = runErr == nil && len(res.Checkpoints) > 0
	for _, cp := range res.Checkpoints {
		if !cp.Passed {
			res.Passed = false
		}
	}
	if runErr != nil {
		res.Err = runErr.Error()
	}
	verdict := "PASS"
	if !res.Passed {
		verdict = "FAIL"
	}
	h.logf("--- %s: %s  virtual %s, wall %s, %d procs, %d requests, %d tuples",
		verdict, s.ID,
		time.Duration(res.VirtualMS)*time.Millisecond,
		time.Duration(res.WallMS)*time.Millisecond,
		res.Procs, res.Requests, res.Tuples)
	return res
}

// RunAll executes the given scenarios in order.
func (h *Harness) RunAll(scenarios []*Scenario) []*Result {
	out := make([]*Result, len(scenarios))
	for i, s := range scenarios {
		out[i] = h.RunScenario(s)
	}
	return out
}

// horizon returns the fixed settle time for the run's sizing.
func (r *Run) horizon() time.Duration {
	h := r.S.Horizon
	if r.Short {
		h /= 2
		if h < 4*time.Second {
			h = 4 * time.Second
		}
	}
	return h
}
