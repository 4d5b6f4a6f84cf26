package agent

import (
	"context"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
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
		if wc, ws := s.Weighted(); wc != want || ws != want {
			t.Errorf("Weighted() = (%v, %v), want (%v, %v)", wc, ws, want, want)
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

// TestUninstallRemovesSampledQuery: uninstalling a sampled query drops
// it from the adaptive controller, so later requests mint no decision
// and the heartbeat rate returns to "exact" (1000 milli).
func TestUninstallRemovesSampledQuery(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{sampledProgram(0.25)}})
		if st := a.Stats(); st.SampleRateMilli != 250 {
			t.Fatalf("SampleRateMilli = %d, want 250 while installed", st.SampleRateMilli)
		}
		b.Publish(ControlTopic, Uninstall{QueryID: "Q"})
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
