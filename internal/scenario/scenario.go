// Package scenario is the repo's failure-scenario harness: a library of
// pre-built production pathologies (limplock disks, hot HBase regions,
// straggler reducers, cascading failovers, ...) replayed on 1000+-host
// simulated topologies, where every checkpoint installs real Pivot
// Tracing queries through the cluster frontend and asserts on their
// reported rows — the paper's §6 evaluations turned into one reusable,
// checkpointed test subsystem.
//
// Determinism rules (see DESIGN.md "Scenario harness"):
//   - every random choice derives from the run seed (per-client rngs are
//     seeded from it; no wall-clock, no global rand);
//   - load is fixed-op-count, not duration-bounded, so totals are exact;
//   - runs settle to a fixed virtual horizon, so virtual durations are
//     constants of (scenario, seed, hosts);
//   - mid-run checkpoints use threshold assertions (robust to the ±1-op
//     scheduling jitter at interval boundaries); exact conservation
//     assertions run only after all load has joined and agents flushed.
package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Every scenario runs on DefaultHosts topology hosts, or on ShortHosts in
// a reduced (-short / CI -race) run; Harness.Hosts overrides both.
const (
	DefaultHosts = 1024
	ShortHosts   = 64
)

// Scenario is one pre-built failure scenario.
type Scenario struct {
	// ID is the stable kebab-case identifier (ptbench -run takes it).
	ID string
	// Name is the human-readable display name.
	Name string
	// Description is a one-line summary of the pathology and assertion.
	Description string
	// Interval is the agent reporting interval checkpoints are clocked
	// against.
	Interval time.Duration
	// Horizon is the fixed virtual end time of a full run; runs settle
	// to it so the virtual duration is deterministic. Halved (at least
	// 4s) for short runs.
	Horizon time.Duration
	// CombinerTree deploys the cluster behind a rack-granularity combiner
	// tree (cluster.Config.Combiners) instead of flat.
	CombinerTree bool
	// Run is the scenario body. The harness deploys the substrate before
	// it and, when it returns nil, settles the run to its horizon.
	Run func(r *Run) error
}

// CheckpointResult is one checkpoint verdict.
type CheckpointResult struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	// Intervals is how many reporting intervals the checkpoint waited
	// before its predicate held (0 = immediate assertion).
	Intervals int `json:"intervals"`
	// VirtualMS is when the verdict was reached (console only: its last
	// digits can carry scheduling jitter, so it stays out of the
	// byte-identical JSON report).
	VirtualMS int64  `json:"-"`
	Detail    string `json:"detail,omitempty"`
}

// Run is the per-execution context handed to a scenario body: the fresh
// simulation, the deployed cluster, seeded randomness, and the
// checkpoint recorder.
type Run struct {
	S     *Scenario
	Seed  int64
	Hosts int
	Short bool

	Env *simtime.Env
	*workload.Deployment

	logf func(format string, args ...any)

	mu          sync.Mutex
	checkpoints []CheckpointResult
	requests    int64
	clientErrs  int64
	firstErr    error
}

// Logf emits a progress line to the harness console (no-op when quiet).
func (r *Run) Logf(format string, args ...any) {
	if r.logf != nil {
		r.logf(format, args...)
	}
}

// Rand returns a new deterministic rng derived from the run seed and tag.
// Its source is seeded on its first draw: a driver hands every client one,
// and most never draw.
func (r *Run) Rand(tag int64) *rand.Rand {
	return rand.New(&lazySource{seed: r.Seed*-0x61C8864680B583EB + tag})
}

// lazySource is rand.NewSource(seed), seeded on its first draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) get() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.get().Int63() }
func (s *lazySource) Uint64() uint64  { return s.get().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// Size picks a scenario parameter for the run's sizing: full for a
// full-size run, short for a reduced one.
func (r *Run) Size(full, short int) int {
	if r.Short {
		return short
	}
	return full
}

// AddRequests counts completed simulated requests toward the run metrics.
func (r *Run) AddRequests(n int64) {
	r.mu.Lock()
	r.requests += n
	r.mu.Unlock()
}

// Requests returns the requests counted so far.
func (r *Run) Requests() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.requests
}

// Query installs a Pivot Tracing query through the deployment's frontend.
// Scenario queries are structural, so a parse/install error is a scenario
// bug and panics.
func (r *Run) Query(text string) *core.Installed {
	q, err := r.C.PT.Install(text)
	if err != nil {
		panic(fmt.Sprintf("scenario %s: bad query %q: %v", r.S.ID, text, err))
	}
	return q
}

// record appends a checkpoint verdict.
func (r *Run) record(cr CheckpointResult) {
	r.mu.Lock()
	r.checkpoints = append(r.checkpoints, cr)
	r.mu.Unlock()
	status := "pass"
	if !cr.Passed {
		status = "FAIL"
	}
	detail := ""
	if cr.Detail != "" {
		detail = ": " + cr.Detail
	}
	r.Logf("  checkpoint %-28s %s (interval %d, t=%s)%s",
		cr.Name, status, cr.Intervals, time.Duration(cr.VirtualMS)*time.Millisecond, detail)
}

// Expect records an immediate (non-query) checkpoint: err == nil passes.
func (r *Run) Expect(name string, err error) bool {
	cr := CheckpointResult{
		Name:      name,
		Passed:    err == nil,
		VirtualMS: int64(r.Env.Now() / time.Millisecond),
	}
	if err != nil {
		cr.Detail = err.Error()
	}
	r.record(cr)
	return cr.Passed
}

// Await evaluates check against the query's reported rows at successive
// reporting-interval boundaries, up to within intervals, and records the
// verdict: it passes as soon as check returns nil. Agents are flushed
// before each evaluation so the frontend sees the current interval. The
// boundaries are aligned to absolute multiples of the reporting interval,
// keeping checkpoint times deterministic.
func (r *Run) Await(name string, q *core.Installed, within int, check func(rows []tuple.Tuple) error) bool {
	if within < 1 {
		within = 1
	}
	var lastErr error
	for i := 1; i <= within; i++ {
		r.sleepToNextInterval()
		r.C.FlushAgents()
		lastErr = check(q.Rows())
		if lastErr == nil {
			r.record(CheckpointResult{
				Name: name, Passed: true, Intervals: i,
				VirtualMS: int64(r.Env.Now() / time.Millisecond),
			})
			return true
		}
	}
	r.record(CheckpointResult{
		Name: name, Passed: false, Intervals: within,
		VirtualMS: int64(r.Env.Now() / time.Millisecond),
		Detail:    lastErr.Error(),
	})
	return false
}

// AwaitTotal is the exact conservation checkpoint: at the next interval
// boundary, q's last column summed over every group must equal want.
func (r *Run) AwaitTotal(name string, q *core.Installed, want float64) bool {
	return r.Await(name, q, 1, func(rows []tuple.Tuple) error {
		if got := total(rows); got != want {
			return fmt.Errorf("total %v != %v", got, want)
		}
		return nil
	})
}

// ExpectNoClientErrors records whether every client operation driven so
// far succeeded; a failure names the first failed op.
func (r *Run) ExpectNoClientErrors(name string) bool {
	r.mu.Lock()
	n, first := r.clientErrs, r.firstErr
	r.mu.Unlock()
	var err error
	if n != 0 {
		err = fmt.Errorf("%d client errors, first: %w", n, first)
	}
	return r.Expect(name, err)
}

// ---- row helpers ------------------------------------------------------

// total sums the rows' last column: a query's grand total over its groups.
func total(rows []tuple.Tuple) float64 {
	var s float64
	for _, row := range rows {
		s += row[len(row)-1].Float()
	}
	return s
}

// groupVals maps each row's first column (the group key) to its last
// column's numeric value.
func groupVals(rows []tuple.Tuple) map[string]float64 {
	out := make(map[string]float64, len(rows))
	for _, row := range rows {
		if len(row) < 2 {
			continue
		}
		out[row[0].Str()] = row[len(row)-1].Float()
	}
	return out
}

func sumVals(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// maxVal returns the largest value and its key.
func maxVal(m map[string]float64) (string, float64) {
	var bk string
	var bv float64
	first := true
	for k, v := range m {
		if first || v > bv || (v == bv && k < bk) {
			bk, bv, first = k, v, false
		}
	}
	return bk, bv
}

func minVal(m map[string]float64) float64 {
	first := true
	var mv float64
	for _, v := range m {
		if first || v < mv {
			mv, first = v, false
		}
	}
	return mv
}

// growth subtracts a snapshot from the current values (missing keys = 0).
func growth(cur, snap map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(cur))
	for k, v := range cur {
		out[k] = v - snap[k]
	}
	return out
}

// sleepToNextInterval sleeps to the next absolute multiple of the
// reporting interval (strictly in the future).
func (r *Run) sleepToNextInterval() {
	now := r.Env.Now()
	next := (now/r.S.Interval + 1) * r.S.Interval
	r.Env.Sleep(next - now)
}

// SettleTo sleeps until the fixed virtual time t, making run durations
// deterministic. A no-op if t has already passed.
func (r *Run) SettleTo(t time.Duration) {
	if now := r.Env.Now(); now < t {
		r.Env.Sleep(t - now)
	}
}

// DriveAsync starts a fixed-op-count closed loop over the given client
// processes and returns a join function that blocks until every client
// finishes: each client performs opsEach operations of op(client index,
// op index, request context, process, rng). Clients are staggered by a
// few microseconds to break virtual-time ties, and each gets its own
// seeded rng. Operation errors are counted (and the first kept); they do
// not stop the remaining operations.
func (r *Run) DriveAsync(procs []*cluster.Process, opsEach int, op func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error) (join func()) {
	wg := r.Env.NewWaitGroup()
	wg.Add(len(procs))
	for i, p := range procs {
		i, p := i, p
		r.Env.Go(func() {
			defer wg.Done()
			rng := r.Rand(int64(i) + 1)
			r.Env.Sleep(time.Duration(i+1) * 3 * time.Microsecond)
			for k := 0; k < opsEach; k++ {
				ctx := p.NewRequest()
				err := op(i, k, ctx, p, rng)
				r.mu.Lock()
				r.requests++
				if err != nil {
					r.clientErrs++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("client %d op %d: %w", i, k, err)
					}
				}
				r.mu.Unlock()
			}
		})
	}
	return wg.Wait
}
