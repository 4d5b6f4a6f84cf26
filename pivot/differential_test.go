package pivot

// The differential query-correctness harness: every generated case is a
// causal trace script plus a random valid query. The case is executed
// through the REAL distributed pipeline — parser, planner (optimized and
// unoptimized), advice weaving, baggage propagation across splits/joins
// and serialized process transfers on the simtime/netsim substrate,
// per-process agents with interval reporting, and the frontend's global
// merge — and the result set must be byte-equal to what the reference
// evaluator (internal/oracle) computes from the materialized trace.
//
// Every case runs in every topology of the table below: flat (agents →
// frontend) and combiner trees of two widths (agents → partitioned mid
// combiners → root → frontend). All must equal the oracle, and every tree
// must equal flat, byte for byte: the load-bearing proof that
// reassociating the merge tree cannot corrupt aggregation — agg.State
// merging is associative and commutative, raw rows union, and drop
// tombstones stay exact through the extra union at each tier.
//
// Reproduce a failure with the seed printed in the failure message:
//
//	go test ./pivot -run '^TestDifferential$' -seed=<N>

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/cluster"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/querygen"
	"repro/internal/randtest"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// diffBaseSeed fixes the deterministic sweep; CI and local runs see the
// same cases. The budgeted sweep uses a disjoint seed range.
const (
	diffBaseSeed   = 1_000_000
	diffBudgetSeed = 2_000_000
)

// diffCases resolves the per-sweep case count: PT_DIFF_CASES wins, then
// -short, then the full default.
func diffCases(t *testing.T, full, short int) int {
	if s := os.Getenv("PT_DIFF_CASES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad PT_DIFF_CASES=%q", s)
		}
		return v
	}
	if testing.Short() {
		return short
	}
	return full
}

// diffInterval is short enough to spread a trace over several reporting
// rounds, exercising the multi-report merge at every tier; the combiners
// flush on the same cadence as the agents.
const diffInterval = 5 * time.Millisecond

// diffCluster builds a differential-case cluster behind a combiner tree
// that many mids wide (0 = flat).
func diffCluster(env *simtime.Env, combiners int) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.ReportInterval = diffInterval
	cfg.Combiners = combiners
	return cluster.New(env, cfg)
}

// diffTree is the tree the single-topology suites run behind: 3 mids over
// 12 partition topics — several per combiner, so rendezvous ownership is
// non-trivial even with few agents.
const diffTree = 3

// topologies are the deployments every differential case runs through;
// flat comes first and is what the others are compared to.
var topologies = []struct {
	name      string
	combiners int
}{{"flat", 0}, {"tree-1", 1}, {"tree", diffTree}}

// diffResult is what the frontend reports for one installed query.
type diffResult struct {
	rows    []tuple.Tuple
	dropped int
	partial bool
}

// runPipeline executes the case's trace script on a fresh cluster in the
// given topology with the case's query installed once per entry of opts,
// and returns each install's results in order.
func runPipeline(c *querygen.Case, combiners int, opts ...plan.Options) ([]diffResult, error) {
	out := make([]diffResult, len(opts))
	var runErr error
	env := simtime.NewEnv()
	env.Run(func() {
		cl := diffCluster(env, combiners)
		x := cluster.NewScriptExec(cl, c)
		handles := make([]*Query, len(opts))
		for i, o := range opts {
			h, err := cl.PT.InstallNamed("", c.QueryText, o)
			if err != nil {
				runErr = fmt.Errorf("install #%d: %w", i, err)
				return
			}
			handles[i] = h
		}
		if err := x.Run(); err != nil {
			runErr = err
			return
		}
		env.Sleep(3 * diffInterval)
		cl.FlushAgents()
		for i, h := range handles {
			out[i] = diffResult{h.Rows(), h.DroppedGroups(), h.Partial()}
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("query %q: %w", c.QueryText, runErr)
	}
	return out, nil
}

// TestDifferential: optimized and unoptimized plans, in every topology,
// against the oracle — and every tree against flat.
func TestDifferential(t *testing.T) {
	randtest.Check(t, diffCases(t, 500, 120), diffBaseSeed, func(seed int64) error {
		c := querygen.Generate(seed)
		var got [][]diffResult // per topology: optimized, unoptimized
		for _, top := range topologies {
			res, err := runPipeline(c, top.combiners, plan.Optimized, plan.Options{})
			if err != nil {
				return fmt.Errorf("%s: %w", top.name, err)
			}
			got = append(got, res)
		}
		want, err := oracleRows(c) // the trace is stamped by the runs above
		if err != nil {
			return err
		}
		wantC := oracle.Canonical(want)
		for ti, top := range topologies {
			for i, which := range []string{"optimized", "unoptimized"} {
				if !bytes.Equal(wantC, oracle.Canonical(got[ti][i].rows)) {
					return diffError(c, top.name+" "+which+" plan", want, got[ti][i].rows)
				}
			}
		}
		for ti := range topologies {
			if err := sameAsFlat(c, ti, got[0][0].rows, got[ti][0].rows); err != nil {
				return err
			}
		}
		return nil
	})
}

// sameAsFlat compares what topology ti reported with what flat did.
func sameAsFlat(c *querygen.Case, ti int, flat, tree []tuple.Tuple) error {
	if ti == 0 || bytes.Equal(oracle.Canonical(flat), oracle.Canonical(tree)) {
		return nil
	}
	name := topologies[ti].name
	return fmt.Errorf("flat and %s topologies diverge\nquery: %s\nflat:\n%s\n%s:\n%s",
		name, c.QueryText, oracle.Format(flat), name, oracle.Format(tree))
}

// oracleRows evaluates the case's query with the reference evaluator
// against the materialized (stamped) trace.
func oracleRows(c *querygen.Case) ([]tuple.Tuple, error) {
	q, err := query.Parse(c.QueryText)
	if err != nil {
		return nil, fmt.Errorf("reparse %q: %w", c.QueryText, err)
	}
	reg := tracepoint.NewRegistry()
	c.Define(reg)
	tr, err := c.OracleTrace()
	if err != nil {
		return nil, err
	}
	want, err := oracle.Evaluate(q, reg, tr)
	if err != nil {
		return nil, fmt.Errorf("oracle %q: %w", c.QueryText, err)
	}
	return want, nil
}

// TestDifferentialBudgeted: the same trace-script interpreter, but the
// query runs under a deliberately tiny baggage budget, in every topology.
// Truncation must be *accounted*: every reported group is byte-exact
// against the oracle (a surviving group carries its full aggregate, never
// a truncated portion), and reported + dropped reconciles exactly with the
// oracle's group count — through the tree too, i.e. the tiers' extra
// tombstone unions neither lose nor double-count an eviction.
func TestDifferentialBudgeted(t *testing.T) {
	randtest.Check(t, diffCases(t, 150, 50), diffBudgetSeed, func(seed int64) error {
		c := querygen.GenerateBudgeted(seed)
		// Small enough to usually truncate a 4–12 key pool, varied enough
		// to also hit the everything-fits path.
		budget := 2 + int(seed%5)
		var got []diffResult // per topology
		for _, top := range topologies {
			res, err := runPipeline(c, top.combiners, plan.Options{
				Optimize: true,
				Safety:   advice.Safety{Budget: baggage.Budget{MaxTuples: budget}},
			})
			if err != nil {
				return fmt.Errorf("%s budget %d: %w", top.name, budget, err)
			}
			got = append(got, res[0])
		}
		want, err := oracleRows(c)
		if err != nil {
			return err
		}
		for ti, top := range topologies {
			if err := checkBudgeted(c, want, got[ti]); err != nil {
				return fmt.Errorf("%s budget %d: %w", top.name, budget, err)
			}
			if err := sameAsFlat(c, ti, got[0].rows, got[ti].rows); err != nil {
				return fmt.Errorf("budget %d: %w", budget, err)
			}
		}
		return nil
	})
}

// checkBudgeted is the truncation-accounting oracle of the budgeted sweep.
func checkBudgeted(c *querygen.Case, want []tuple.Tuple, got diffResult) error {
	// Reported ⊆ oracle, byte-exact per row: truncation may lose whole
	// groups but never corrupts a survivor.
	wantRow := map[string]bool{}
	for _, r := range want {
		wantRow[string(oracle.Canonical([]tuple.Tuple{r}))] = true
	}
	for _, r := range got.rows {
		if !wantRow[string(oracle.Canonical([]tuple.Tuple{r}))] {
			return fmt.Errorf("reported row %v is not an oracle row\nquery: %s\noracle:\n%s\npipeline:\n%s",
				r, c.QueryText, oracle.Format(want), oracle.Format(got.rows))
		}
	}
	// Exact reconciliation: nothing vanishes unaccounted, nothing is
	// counted twice.
	if len(got.rows)+got.dropped != len(want) {
		return fmt.Errorf("reported %d + dropped %d != oracle %d groups\nquery: %s\noracle:\n%s\npipeline:\n%s",
			len(got.rows), got.dropped, len(want), c.QueryText, oracle.Format(want), oracle.Format(got.rows))
	}
	if got.dropped > 0 && !got.partial {
		return fmt.Errorf("%d groups dropped but the query is not flagged partial", got.dropped)
	}
	if got.dropped == 0 && !bytes.Equal(oracle.Canonical(want), oracle.Canonical(got.rows)) {
		return diffError(c, "budgeted (nothing dropped)", want, got.rows)
	}
	return nil
}

func diffError(c *querygen.Case, which string, want, got []tuple.Tuple) error {
	return fmt.Errorf("%s diverges from oracle\nquery: %s\nevents: %d  procs: %d  linear: %v\noracle:\n%s\npipeline:\n%s",
		which, c.QueryText, len(c.Events), c.NumProcs, c.Linear,
		oracle.Format(want), oracle.Format(got))
}
