package agent

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// sampledProgram is q1Program with request-level sampling enabled.
func sampledProgram(rate float64) *advice.Program {
	p := q1Program()
	p.SampleRate = rate
	return p
}

// sampledRequest builds a request context the way a monitored process's
// NewRequest does: fresh baggage with the agent's minted decision.
func sampledRequest(a *Agent, host string) (context.Context, *baggage.Baggage) {
	ctx := tracepoint.WithProc(context.Background(), info(host))
	bag := baggage.New()
	a.MintSampleDecision(bag)
	return baggage.NewContext(ctx, bag), bag
}

// TestMintedDecisionSuppressesOrWeighs drives many requests through an
// agent with a sampled query installed: every request gets exactly one
// minted decision, suppressed crossings land in SampledOut, and the
// reported aggregate is the Horvitz-Thompson estimate — inexact, with
// weighted count and sum equal to kept/rate.
func TestMintedDecisionSuppressesOrWeighs(t *testing.T) {
	const (
		rate     = 0.5
		requests = 200
	)
	env := simtime.NewEnv()
	var reports []Report
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Subscribe(ResultsTopic, func(msg any) { reports = append(reports, resultReports(msg)...) })
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{sampledProgram(rate)}})

		kept := 0
		for i := 0; i < requests; i++ {
			ctx, bag := sampledRequest(a, "h1")
			r, ok := bag.SampleRate("Q")
			if !ok {
				t.Fatalf("request %d: no decision minted", i)
			}
			if r != 0 && r != rate {
				t.Fatalf("request %d: decision rate %v, want 0 or %v", i, r, rate)
			}
			if r > 0 {
				kept++
			}
			tp.Here(ctx, 1)
		}
		if kept == 0 || kept == requests {
			t.Fatalf("degenerate draw: kept %d of %d requests at rate %v", kept, requests, rate)
		}
		a.Flush()

		st := a.Stats()
		if st.SampledOut != int64(requests-kept) {
			t.Errorf("SampledOut = %d, want %d", st.SampledOut, requests-kept)
		}
		if st.SampleRateMilli != 500 {
			t.Errorf("SampleRateMilli = %d, want 500", st.SampleRateMilli)
		}
		if len(reports) != 1 || len(reports[0].Groups) != 1 {
			t.Fatalf("reports = %+v", reports)
		}
		s := reports[0].Groups[0].States[0]
		if s.Exact() {
			t.Error("weighted partial claims exact")
		}
		want := float64(kept) / rate // each kept crossing: one v=1 tuple at weight 1/rate
		folded := agg.New(agg.Sum)
		for range kept {
			folded.AddWeighted(tuple.Int(1), 1/rate)
		}
		if got, exp := s.Append(nil), folded.Append(nil); !bytes.Equal(got, exp) {
			t.Errorf("reported state encodes as %x, want %x (%d crossings at weight %v)", got, exp, kept, 1/rate)
		}
		if got := s.Result().Float(); got != want {
			t.Errorf("weighted SUM = %v, want %v", got, want)
		}
	})
}

// TestMintedDecisionRateOneIsExact: rate 1 engages the decision path
// (every request is admitted at weight 1) yet the reported state stays
// on the exact path — no suppression, no approximate flag.
func TestMintedDecisionRateOneIsExact(t *testing.T) {
	env := simtime.NewEnv()
	var reports []Report
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Subscribe(ResultsTopic, func(msg any) { reports = append(reports, resultReports(msg)...) })
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{sampledProgram(1)}})

		for i := 0; i < 20; i++ {
			ctx, bag := sampledRequest(a, "h1")
			if r, ok := bag.SampleRate("Q"); !ok || r != 1 {
				t.Fatalf("request %d: decision = (%v, %v), want (1, true)", i, r, ok)
			}
			tp.Here(ctx, 2)
		}
		a.Flush()

		if st := a.Stats(); st.SampledOut != 0 {
			t.Errorf("SampledOut = %d, want 0 at rate 1", st.SampledOut)
		}
		if len(reports) != 1 || len(reports[0].Groups) != 1 {
			t.Fatalf("reports = %+v", reports)
		}
		s := reports[0].Groups[0].States[0]
		if !s.Exact() {
			t.Error("rate-1 partial flagged approximate")
		}
		if got := s.Result().Int(); got != 40 {
			t.Errorf("SUM = %v, want 40", got)
		}
	})
}

// TestMintWithoutSampledQueries: with no sampled query installed the
// mint is a no-op (and nil baggage must not panic), so requests carry
// no decision and the unsampled query runs exactly.
func TestMintWithoutSampledQueries(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})

		a.MintSampleDecision(nil)
		bag := baggage.New()
		a.MintSampleDecision(bag)
		if r, ok := bag.SampleRate("Q"); ok {
			t.Fatalf("decision (%v) minted for unsampled query", r)
		}
	})
}

// TestManualFlushDoesNotTickSampling: the adaptive controller steps once
// per reporting interval of the agent's clock. A manual Flush right after
// the report loop's own flush must not read as a second, idle interval
// and double a backed-off rate straight back.
func TestManualFlushDoesNotTickSampling(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		prog := sampledProgram(0.5)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{prog}})
		a.NotePackStats(prog, baggage.PackStats{EvictedTuples: 1})

		env.Sleep(1500 * time.Millisecond) // the report loop flushes at 1s
		if st := a.Stats(); st.SampleRateMilli != 250 {
			t.Fatalf("after a pressured interval SampleRateMilli = %d, want 250", st.SampleRateMilli)
		}
		a.Flush()
		if st := a.Stats(); st.SampleRateMilli != 250 {
			t.Errorf("after a manual flush SampleRateMilli = %d, want 250", st.SampleRateMilli)
		}
	})
}

// samplingAgent starts an agent on env with a 1s report loop and sleeps
// half an interval, so each tickSampling below spans exactly one of the
// loop's adaptive steps.
func samplingAgent(env *simtime.Env) *Agent {
	reg := tracepoint.NewRegistry()
	reg.Define("Tp", "v")
	a := New(env, info("h1"), reg, bus.New(), time.Second)
	env.Sleep(500 * time.Millisecond)
	return a
}

func installSampled(a *Agent, id string, rate float64) {
	a.Deliver(Install{QueryID: id, Programs: []*advice.Program{sampledProgram(rate)}})
}

// tickSampling lets one reporting interval pass, with baggage-budget
// pressure (a pack-side eviction) or without.
func tickSampling(env *simtime.Env, a *Agent, pressure bool) {
	if pressure {
		a.NotePackStats(nil, baggage.PackStats{EvictedTuples: 1})
	}
	env.Sleep(time.Second)
}

// effective is the query's current effective sampling rate; 0 when it is
// not installed or not sampled.
func effective(a *Agent, id string) float64 {
	a.mu.Lock()
	qs := a.queries[id]
	a.mu.Unlock()
	if qs == nil || qs.sample == nil {
		return 0
	}
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	return qs.sample.eff
}

// TestSamplingBackoffAndRestore: every pressured interval halves each
// sampled query's effective rate, floored at base/64; every quiet one
// doubles it back toward the base, never past it.
func TestSamplingBackoffAndRestore(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		a := samplingAgent(env)
		installSampled(a, "Q", 0.5)
		if got := effective(a, "Q"); got != 0.5 {
			t.Fatalf("effective after install = %v, want 0.5", got)
		}
		for i := 0; i < 20; i++ {
			tickSampling(env, a, true)
		}
		if got, floor := effective(a, "Q"), 0.5/64; got != floor {
			t.Fatalf("effective after sustained pressure = %v, want floor %v", got, floor)
		}
		installSampled(a, "Q2", 0.8)
		tickSampling(env, a, true)
		if got := effective(a, "Q2"); got != 0.4 {
			t.Fatalf("one pressure tick: effective = %v, want 0.4", got)
		}
		for i := 0; i < 20; i++ {
			tickSampling(env, a, false)
		}
		if got := effective(a, "Q"); got != 0.5 {
			t.Fatalf("effective after recovery = %v, want base 0.5", got)
		}
		if got := effective(a, "Q2"); got != 0.8 {
			t.Fatalf("Q2 effective after recovery = %v, want base 0.8", got)
		}
	})
}

// TestSamplingRateMilliIsMinimum: the heartbeat's SampleRateMilli is 1000
// with no sampled query installed, and otherwise the lowest effective rate
// in thousandths.
func TestSamplingRateMilliIsMinimum(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		a := samplingAgent(env)
		a.Deliver(Install{QueryID: "U", Programs: []*advice.Program{q1Program()}})
		if got := a.Stats().SampleRateMilli; got != 1000 {
			t.Fatalf("no sampled query: SampleRateMilli = %d, want 1000", got)
		}
		installSampled(a, "A", 1)
		installSampled(a, "B", 0.05)
		if got := a.Stats().SampleRateMilli; got != 50 {
			t.Fatalf("SampleRateMilli = %d, want 50", got)
		}
		tickSampling(env, a, true)
		if got := a.Stats().SampleRateMilli; got != 25 {
			t.Fatalf("SampleRateMilli after pressure = %d, want 25", got)
		}
	})
}

// TestSamplingRateValidatedAtInstall: a rate outside (0, 1] installs the
// query unsampled, and installing an installed query again keeps the
// backoff in progress.
func TestSamplingRateValidatedAtInstall(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		a := samplingAgent(env)
		installSampled(a, "bad", math.NaN())
		bag := baggage.New()
		a.MintSampleDecision(bag)
		if r, ok := bag.SampleRate("bad"); ok || effective(a, "bad") != 0 || !a.Installed("bad") {
			t.Fatalf("NaN rate: decision (%v, %v), effective %v; want an installed, unsampled query", r, ok, effective(a, "bad"))
		}
		installSampled(a, "Q", 0.25)
		tickSampling(env, a, true)
		installSampled(a, "Q", 0.25)
		if got := effective(a, "Q"); got != 0.125 {
			t.Fatalf("re-install reset backoff: effective = %v, want 0.125", got)
		}
	})
}

// TestUninstallRemovesSampledQuery: uninstalling a sampled query forgets
// its rate, so later requests mint no decision and the heartbeat rate
// returns to "exact" (1000 milli).
func TestUninstallRemovesSampledQuery(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		a := samplingAgent(env)
		installSampled(a, "Q", 0.25)
		tickSampling(env, a, true)
		if st := a.Stats(); st.SampleRateMilli != 125 {
			t.Fatalf("SampleRateMilli = %d, want 125 while installed and backed off", st.SampleRateMilli)
		}
		a.Deliver(Uninstall{QueryID: "Q"})
		bag := baggage.New()
		a.MintSampleDecision(bag)
		if _, ok := bag.SampleRate("Q"); ok {
			t.Fatal("decision minted for uninstalled query")
		}
		if st := a.Stats(); st.SampleRateMilli != 1000 {
			t.Errorf("SampleRateMilli = %d, want 1000 after uninstall", st.SampleRateMilli)
		}
	})
}

// TestSamplingRateForgottenAtUninstall: uninstalling a backed-off query
// drops its effective rate, so a reinstall starts again at its base.
func TestSamplingRateForgottenAtUninstall(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		a := samplingAgent(env)
		installSampled(a, "Q", 0.25)
		tickSampling(env, a, true)
		a.Deliver(Uninstall{QueryID: "Q"})
		if got := effective(a, "Q"); got != 0 {
			t.Fatalf("effective after uninstall = %v, want 0", got)
		}
		installSampled(a, "Q", 0.25)
		if got := effective(a, "Q"); got != 0.25 {
			t.Fatalf("reinstall effective = %v, want base 0.25", got)
		}
	})
}
