package baggage

import "repro/internal/tuple"

// SampleSlot is the reserved slot carrying per-request sampling
// decisions. Like DropSlot and TraceSlot the leading '!' keeps it
// outside every query's slot namespace, and it is excluded from budget
// accounting and victim selection: the decision IS the request's
// sampling identity — evicting it would let different tracepoints on
// one causal path disagree about whether the request is sampled, which
// is exactly the half-request inconsistency the slot exists to prevent.
const SampleSlot = "!pt.sample"

// SampleSpec stores one (query, rate) decision tuple per sampled query:
// rate > 0 means the request is sampled for that query at the recorded
// effective rate (observations carry weight 1/rate); rate == 0 means
// the request is suppressed for that query. UNION retention makes the
// decision monotone: minted once before any split, the identical tuple
// deduplicates at every join, so a decision can never be lost or forked
// into disagreement.
var SampleSpec = SetSpec{Kind: Union, Fields: tuple.Schema{"q", "r"}}

// PackSampleDecision records the request-level decision for one query.
// It must be called at most once per (request, query), before the
// request's baggage first splits.
func (b *Baggage) PackSampleDecision(queryID string, rate float64) {
	decisions, _ := b.active().set(SampleSlot, SampleSpec) // minted into new baggage: nothing to conflict with
	decisions.Pack(tuple.Tuple{tuple.String(queryID), tuple.Float(rate)})
}

// SampleRate looks up the request's decision for queryID: (rate, true)
// when a decision was minted — rate 0 meaning "suppressed" — and
// (0, false) when the request carries no decision for the query, which
// callers must treat as "not sampled: process exactly". The lookup
// allocates nothing; it runs on the advice hot path at every crossing
// of a sampled query.
func (b *Baggage) SampleRate(queryID string) (float64, bool) {
	if b == nil {
		return 0, false
	}
	var rate float64
	found := b.findPair(SampleSlot, func(q, r tuple.Value) bool {
		rate = r.Float()
		return q.Str() == queryID
	})
	if !found {
		return 0, false
	}
	return rate, true
}
