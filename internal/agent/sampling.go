package agent

import (
	"math"
	"math/rand"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/tuple"
)

// sampled is the sampling record of a query installed with a SampleRate:
// the installed (base) rate and the adaptive effective rate decisions are
// minted against. eff is guarded by Agent.rngMu.
type sampled struct {
	id   string
	base float64
	eff  float64
}

// backoffFloor divides the base rate to give the lowest effective rate
// adaptive control may reach: pressure can shed up to ~98% of a query's
// sampled requests, but never silences the query entirely.
const backoffFloor = 64

// EmitTupleWeighted implements advice.Host: EmitTuple for a
// tuple from a sampled request, carrying its inverse-rate weight into
// the accumulator so COUNT/SUM aggregate to unbiased estimates. A query
// whose accumulator is missing has no emitting program woven here, so the
// tuple came from advice unwoven since.
func (a *Agent) EmitTupleWeighted(p *advice.Program, w tuple.Tuple, weight float64) {
	a.live.TuplesEmitted.Add(1)
	view := a.queriesView.Load()
	if view == nil {
		return
	}
	qs, ok := (*view)[p.QueryID]
	if !ok {
		return
	}
	if acc := qs.acc.Load(); acc != nil {
		acc.AddWeighted(w, weight)
	}
}

// NoteSampledOut implements advice.Host: a crossing was suppressed
// by the request's sampling decision.
func (a *Agent) NoteSampledOut(p *advice.Program) {
	a.live.SampledOut.Add(1)
}

// MintSampleDecision mints the request-level sampling decision into
// fresh baggage, once, at request creation, in the originating process.
// For every query installed here with a sampling rate, one draw against
// the query's current adaptive effective rate decides the whole request:
// the decision tuple (query, effective-rate or 0) then travels with the
// baggage through every split, join, and process transfer, so advice at
// every tracepoint on the causal path agrees. Queries are visited in id
// order with a per-agent seeded RNG, keeping simulated runs
// deterministic. With no sampled queries installed this is a single
// atomic load.
func (a *Agent) MintSampleDecision(bag *baggage.Baggage) {
	view := a.samplingView.Load()
	if len(*view) == 0 || bag == nil {
		return
	}
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	if a.sampleRng == nil {
		// Seeded from the process identity: unique per process, stable per
		// simulated run, so scenario reports stay byte-reproducible.
		a.sampleRng = rand.New(rand.NewSource(a.proc.ProcID*0x9E3779B9 + 1))
	}
	for _, sq := range *view {
		switch {
		case sq.eff >= 1:
			bag.PackSampleDecision(sq.id, 1)
		case a.sampleRng.Float64() < sq.eff:
			bag.PackSampleDecision(sq.id, sq.eff)
		default:
			bag.PackSampleDecision(sq.id, 0)
		}
	}
}

// tickSampling is the adaptive sampling tick, at most once per reporting
// interval of the agent's clock however often Flush runs: baggage drop
// counters growing since the last tick means the request path is over
// budget — halve every effective rate, floored at base/backoffFloor. A
// quiet interval doubles them back toward each query's base rate.
func (a *Agent) tickSampling() {
	a.mu.Lock()
	now := a.now()
	due := now >= a.nextTick
	if due {
		a.nextTick = now - (now-a.nextTick)%a.interval + a.interval
	}
	a.mu.Unlock()
	if !due {
		return
	}
	cur := a.live.BaggageGroupsDropped.Load() + a.live.BaggageTuplesDropped.Load() + a.live.BaggageBytesDropped.Load()
	prev := a.pressureMark.Swap(cur)
	a.rngMu.Lock()
	defer a.rngMu.Unlock()
	for _, sq := range *a.samplingView.Load() {
		if cur > prev {
			sq.eff = math.Max(sq.base/backoffFloor, sq.eff/2)
		} else {
			sq.eff = math.Min(sq.base, sq.eff*2)
		}
	}
}
