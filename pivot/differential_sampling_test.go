package pivot

// The sampled differential mode: generated cases run a query that
// declares a Sample clause, each replay of the trace script being one
// request whose keep/suppress decision the originating agent mints into
// baggage. The statistical oracle is the UNSAMPLED evaluation of the same
// case (internal/oracle ignores the Sample clause), scaled by the number
// of requests:
//
//   - suppression is all-or-nothing per request and exactly accounted:
//     suppressed tracepoint crossings arrive in multiples of the script's
//     event count, and reported-weight + suppressed requests reconcile
//     with the oracle's totals through a 2-tier combiner tree;
//   - weighted COUNT/SUM are the Horvitz-Thompson estimates implied by
//     the kept-request count (exact up to float rounding), and the kept
//     count itself stays within the declared binomial confidence bound;
//   - every reported aggregate is flagged approximate (never silently
//     presented as exact);
//   - a query sampled at rate 1.0 is byte-identical to the exact path.
//
// Reproduce a failure with the seed printed in the failure message:
//
//	go test ./pivot -run TestSampledDifferentialWithinBounds -seed=<N>

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/querygen"
	"repro/internal/randtest"
	"repro/internal/simtime"
	"repro/internal/tuple"
)

// diffSampleSeed starts the sampled sweep's disjoint seed range.
const diffSampleSeed = 3_000_000

// sampledRuns is how many requests (script replays) each sampled case
// drives: enough for the binomial bound to have teeth at the higher
// rates while keeping the 300-case sweep fast.
const sampledRuns = 60

// sampledZ is the declared confidence bound, in binomial standard
// deviations, on the kept-request count (and hence on the weighted
// estimates' relative error). The sweep is deterministic, so this is not
// a flake budget: it was chosen so every seeded case passes while a
// systematic weighting bug (wrong scale factor, decision drift across a
// split) still lands far outside it.
const sampledZ = 5.0

func TestSampledDifferentialWithinBounds(t *testing.T) {
	n := diffCases(t, 300, 80)
	randtest.Check(t, n, diffSampleSeed, runSampledDifferentialCase)
}

func runSampledDifferentialCase(seed int64) error {
	c := querygen.GenerateSampled(seed)
	rate := c.SampleRate

	var rows []tuple.Tuple
	var groups []*Group
	var suppressedCrossings int64
	var runErr error
	env := simtime.NewEnv()
	env.Run(func() {
		// The 2-tier combiner tree is load-bearing: the Exact flag and the
		// weighted fields must survive the extra pairwise merges at the mid
		// and root tiers, not just the flat agent→frontend path.
		cl := diffCluster(env, diffTree)
		x := cluster.NewScriptExec(cl, c)
		h, err := cl.PT.Install(c.QueryText)
		if err != nil {
			runErr = fmt.Errorf("install sampled: %w", err)
			return
		}
		for i := 0; i < sampledRuns; i++ {
			if err := x.Run(); err != nil {
				runErr = fmt.Errorf("run %d: %w", i, err)
				return
			}
		}
		env.Sleep(3 * diffInterval)
		cl.FlushAgents()
		rows, groups = h.Rows(), h.Groups()
		for _, p := range cl.Procs() {
			if p.Agent != nil {
				suppressedCrossings += p.Agent.Stats().SampledOut
			}
		}
	})
	if runErr != nil {
		return fmt.Errorf("query %q: %w", c.QueryText, runErr)
	}

	// The unsampled oracle: exact per-request rows (key, COUNT, SUM).
	want, err := oracleRows(c)
	if err != nil {
		return err
	}
	kTotal := int64(0) // tuples one request contributes to the join
	type exact struct{ count, sum float64 }
	wantByKey := map[string]exact{}
	for _, r := range want {
		wantByKey[r[0].Str()] = exact{count: r[1].Float(), sum: r[2].Float()}
		kTotal += r[1].Int()
	}

	// Suppression is all-or-nothing per request: a suppressed request
	// suppresses every one of the script's crossings, so the total must
	// divide evenly.
	nEvents := int64(len(c.Events))
	if suppressedCrossings%nEvents != 0 {
		return fmt.Errorf("rate %v: %d suppressed crossings is not a multiple of the %d crossings one request makes — a request was partially sampled",
			rate, suppressedCrossings, nEvents)
	}
	suppressed := suppressedCrossings / nEvents
	kept := int64(sampledRuns) - suppressed

	// The kept count is Binomial(runs, rate); the declared bound.
	mean := float64(sampledRuns) * rate
	sigma := math.Sqrt(float64(sampledRuns) * rate * (1 - rate))
	if math.Abs(float64(kept)-mean) > sampledZ*sigma+1 {
		return fmt.Errorf("rate %v: kept %d of %d requests, outside %v sigma of mean %.2f",
			rate, kept, sampledRuns, sampledZ, mean)
	}

	if kept == 0 {
		if len(rows) != 0 {
			return fmt.Errorf("rate %v: all requests suppressed but %d rows reported", rate, len(rows))
		}
		return nil
	}

	// Every reported aggregate must be flagged approximate: weight
	// 1/rate != 1 taints the state, and the flag must survive the tree.
	for _, g := range groups {
		for i, st := range g.States {
			if st.Exact() {
				return fmt.Errorf("rate %v: group %q state %d claims exactness for weighted folds", rate, g.Key, i)
			}
		}
	}

	// Weighted results: each kept request contributes exactly the oracle's
	// per-key COUNT and SUM at weight 1/rate, so the reported value must be
	// kept/rate times the oracle's (up to float rounding), and its relative
	// error against the true total (runs × oracle) obeys the binomial bound
	// already enforced on kept.
	relBound := sampledZ*math.Sqrt((1-rate)/(float64(sampledRuns)*rate)) + 2.0/mean
	var reportedWeight float64
	seen := map[string]bool{}
	for _, r := range rows {
		key := r[0].Str()
		w, ok := wantByKey[key]
		if !ok {
			return fmt.Errorf("rate %v: reported key %q unknown to the oracle", rate, key)
		}
		seen[key] = true
		gotCount, gotSum := r[1].Float(), r[2].Float()
		reportedWeight += gotCount
		expCount := float64(kept) / rate * w.count
		expSum := float64(kept) / rate * w.sum
		if math.Abs(gotCount-expCount) > 1e-6*math.Abs(expCount) {
			return fmt.Errorf("rate %v kept %d: key %q COUNT %v, want %v (oracle %v)\nquery: %s",
				rate, kept, key, gotCount, expCount, w.count, c.QueryText)
		}
		if math.Abs(gotSum-expSum) > 1e-6*math.Abs(expSum) {
			return fmt.Errorf("rate %v kept %d: key %q SUM %v, want %v (oracle %v)\nquery: %s",
				rate, kept, key, gotSum, expSum, w.sum, c.QueryText)
		}
		if trueCount := float64(sampledRuns) * w.count; math.Abs(gotCount-trueCount) > relBound*trueCount {
			return fmt.Errorf("rate %v: key %q weighted COUNT %v vs true %v exceeds declared relative bound %v",
				rate, key, gotCount, trueCount, relBound)
		}
	}
	if len(seen) != len(wantByKey) {
		return fmt.Errorf("rate %v kept %d: reported %d keys, oracle has %d\nquery: %s",
			rate, kept, len(seen), len(wantByKey), c.QueryText)
	}

	// Drop accounting: reported weight × rate + suppressed requests' share
	// reconciles exactly with the oracle count over all requests.
	reported := math.Round(reportedWeight * rate)
	if reported+float64(suppressed*kTotal) != float64(int64(sampledRuns)*kTotal) {
		return fmt.Errorf("rate %v: reported-weight %v (×rate = %v) + suppressed %d×%d != oracle %d×%d",
			rate, reportedWeight, reported, suppressed, kTotal, sampledRuns, kTotal)
	}
	return nil
}

// TestSampledErrorVsRate measures the estimator error the sampling model
// actually delivers, rate by rate. One fixed generated case drives a
// single request stream; the same query is installed under many
// independent names at each sweep rate, so every name mints its own
// keep/suppress decision per request and yields an independent
// Horvitz-Thompson estimate of the same true total. Each estimate's
// relative error must stay inside the declared binomial bound, and rate
// 1.0 must be exact. Run with -v to regenerate the measured table in
// EXPERIMENTS.md ("Sampling error vs rate").
func TestSampledErrorVsRate(t *testing.T) {
	const (
		estimators = 20  // independently sampled installs of the same query
		requests   = 500 // script replays driving all estimators at once
	)
	rates := []float64{0.05, 0.1, 0.25, 0.5, 1.0}

	c := querygen.GenerateBudgeted(diffSampleSeed + 900_000)
	trueTotal := 0.0 // requests x oracle per-request COUNT, set after the first run stamps the trace

	for _, rate := range rates {
		queryText := fmt.Sprintf("%s Sample %v", c.QueryText, rate)
		totals := make([]float64, estimators)
		var runErr error
		env := simtime.NewEnv()
		env.Run(func() {
			cl := diffCluster(env, diffTree)
			x := cluster.NewScriptExec(cl, c)
			handles := make([]interface{ Rows() []tuple.Tuple }, estimators)
			for i := range handles {
				h, err := cl.PT.InstallNamed(fmt.Sprintf("QS%02d", i), queryText, plan.Optimized)
				if err != nil {
					runErr = fmt.Errorf("install estimator %d: %w", i, err)
					return
				}
				handles[i] = h
			}
			for i := 0; i < requests; i++ {
				if err := x.Run(); err != nil {
					runErr = fmt.Errorf("run %d: %w", i, err)
					return
				}
			}
			env.Sleep(3 * diffInterval)
			cl.FlushAgents()
			for i, h := range handles {
				for _, r := range h.Rows() {
					totals[i] += r[1].Float()
				}
			}
		})
		if runErr != nil {
			t.Fatalf("rate %v: %v", rate, runErr)
		}
		if trueTotal == 0 { // the run above stamped the trace; the oracle can evaluate now
			want, err := oracleRows(c)
			if err != nil {
				t.Fatal(err)
			}
			var perReq float64 // COUNT total one request contributes
			for _, r := range want {
				perReq += r[1].Float()
			}
			if perReq == 0 {
				t.Fatalf("degenerate case, oracle total COUNT is zero: %s", c.QueryText)
			}
			trueTotal = float64(requests) * perReq
		}

		sigma := math.Sqrt((1 - rate) / (float64(requests) * rate))
		relBound := sampledZ*sigma + 2/(float64(requests)*rate)
		var sumAbs, maxAbs float64
		for i, got := range totals {
			relErr := math.Abs(got-trueTotal) / trueTotal
			sumAbs += relErr
			if relErr > maxAbs {
				maxAbs = relErr
			}
			if rate == 1 {
				if relErr != 0 {
					t.Fatalf("rate 1.0 estimator %d: total %v, want exactly %v", i, got, trueTotal)
				}
			} else if relErr > relBound {
				t.Fatalf("rate %v estimator %d: relative error %.4f exceeds bound %.4f (total %v, true %v)",
					rate, i, relErr, relBound, got, trueTotal)
			}
		}
		t.Logf("rate %.2f: %d estimators x %d requests: mean |rel err| %.4f, max %.4f, predicted 1 sigma %.4f",
			rate, estimators, requests, sumAbs/estimators, maxAbs, sigma)
	}
}

// TestSampledRateOneMatchesExactBytes drives the same script through a
// query sampled at rate 1.0 and through the plain exact query: rate 1.0
// must engage the decision path (a decision is minted, weight is 1) yet
// remain byte-identical to the exact pipeline — canonical result bytes
// equal, every aggregate state still flagged exact, so the encoded
// reports carry no weighted fields.
func TestSampledRateOneMatchesExactBytes(t *testing.T) {
	randtest.Check(t, 20, diffSampleSeed+500_000, func(seed int64) error {
		c := querygen.GenerateBudgeted(seed)

		run := func(queryText string) ([]tuple.Tuple, []*Group, error) {
			var rows []tuple.Tuple
			var groups []*Group
			var runErr error
			env := simtime.NewEnv()
			env.Run(func() {
				cl := diffCluster(env, diffTree)
				x := cluster.NewScriptExec(cl, c)
				h, err := cl.PT.InstallNamed("QS", queryText, plan.Optimized)
				if err != nil {
					runErr = fmt.Errorf("install: %w", err)
					return
				}
				for i := 0; i < 5; i++ {
					if err := x.Run(); err != nil {
						runErr = err
						return
					}
				}
				env.Sleep(3 * diffInterval)
				cl.FlushAgents()
				rows, groups = h.Rows(), h.Groups()
			})
			return rows, groups, runErr
		}

		exactRows, _, err := run(c.QueryText)
		if err != nil {
			return fmt.Errorf("exact: %w", err)
		}
		sampledRows, sampledGroups, err := run(c.QueryText + " Sample 1")
		if err != nil {
			return fmt.Errorf("rate 1.0: %w", err)
		}
		if !bytes.Equal(oracle.Canonical(exactRows), oracle.Canonical(sampledRows)) {
			return fmt.Errorf("rate 1.0 diverges from the exact path\nquery: %s\nexact:\n%s\nsampled:\n%s",
				c.QueryText, oracle.Format(exactRows), oracle.Format(sampledRows))
		}
		for _, g := range sampledGroups {
			for i, st := range g.States {
				if !st.Exact() {
					return fmt.Errorf("rate 1.0: group %q state %d flagged approximate", g.Key, i)
				}
				var exactEnc, gotEnc []byte
				gotEnc = st.Append(gotEnc)
				exactEnc = st.Clone().Append(exactEnc)
				if !bytes.Equal(gotEnc, exactEnc) || len(gotEnc) != st.EncodedSize() {
					return fmt.Errorf("rate 1.0: group %q state %d encoding unstable", g.Key, i)
				}
			}
		}
		return nil
	})
}
