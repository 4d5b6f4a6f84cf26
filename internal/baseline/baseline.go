// Package baseline implements the unoptimized evaluation strategy of the
// paper's Fig 6a, used as the comparison point for Pivot Tracing's inline
// happened-before join: every crossing of a tracepoint used by the query
// emits its full exported tuple, tagged with X-Trace-style causal metadata
// (a unique event id plus the ids of the execution's current causal
// frontier, carried in constant-size baggage). A central evaluator
// reconstructs the happened-before relation from the event DAG and
// evaluates the join globally, Magpie-style (§7: "such a query ...
// necessitates global evaluation"), by handing the materialized trace to
// the reference evaluator in internal/oracle.
package baseline

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/baggage"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// frontierSlot is the baggage slot carrying causal metadata.
const frontierSlot = "__xtrace.frontier"

var frontierSpec = baggage.SetSpec{Kind: baggage.Frontier, Fields: tuple.Schema{"eventId"}}

// event is one recorded tracepoint crossing.
type event struct {
	tp      string
	parents []int64
	vals    tuple.Tuple // full exported tuple
}

// Evaluator collects events for one query and evaluates it centrally.
type Evaluator struct {
	q   *query.Query
	reg *tracepoint.Registry

	mu     sync.Mutex
	byID   map[int64]*event
	nextID atomic.Int64

	tuplesEmitted atomic.Int64
	baggageBytes  atomic.Int64
}

// New builds an evaluator for the query against the registry (named
// queries are not supported by the baseline; the paper's comparison
// queries do not use them).
func New(q *query.Query, reg *tracepoint.Registry) (*Evaluator, error) {
	if _, err := query.Analyze(q, reg, nil); err != nil {
		return nil, err
	}
	return &Evaluator{q: q, reg: reg, byID: make(map[int64]*event)}, nil
}

// Probe is the per-tracepoint instrumentation: emit everything, centrally.
// It implements tracepoint.Advice.
type Probe struct {
	ev *Evaluator
	tp string
}

// Probes returns one probe per tracepoint the query touches; weave each
// into the corresponding tracepoint in every process.
func (ev *Evaluator) Probes() map[string]*Probe {
	out := make(map[string]*Probe)
	add := func(src query.Source) {
		if src.Tracepoint != "" {
			out[src.Tracepoint] = &Probe{ev: ev, tp: src.Tracepoint}
		}
	}
	for _, src := range ev.q.From.Sources {
		add(src)
	}
	for _, j := range ev.q.Joins {
		add(j.Source)
	}
	return out
}

// Invoke records the crossing and advances the causal frontier.
func (p *Probe) Invoke(ctx context.Context, vals tuple.Tuple) {
	ev := p.ev
	id := ev.nextID.Add(1)
	e := &event{tp: p.tp, vals: vals.Clone()}
	bag := baggage.FromContext(ctx)
	if bag != nil {
		for _, t := range bag.Unpack(frontierSlot) {
			e.parents = append(e.parents, t[0].Int())
		}
		bag.Pack(frontierSlot, frontierSpec, tuple.Tuple{tuple.Int(id)})
		ev.baggageBytes.Add(int64(bag.ByteSize()))
	}
	ev.tuplesEmitted.Add(1)
	ev.mu.Lock()
	ev.byID[id] = e
	ev.mu.Unlock()
}

// Stats returns the traffic metrics: tuples shipped to the central
// evaluator and cumulative baggage bytes observed on the wire.
func (ev *Evaluator) Stats() (tuples int64, baggageBytes int64) {
	return ev.tuplesEmitted.Load(), ev.baggageBytes.Load()
}

// Evaluate runs the query over all recorded events: it materializes them
// as an oracle trace, in id order (which is firing order), with each
// event's happened-before set closed over its parents', and evaluates the
// query on that trace.
func (ev *Evaluator) Evaluate() ([]tuple.Tuple, error) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ids := make([]int64, 0, len(ev.byID))
	for id := range ev.byID {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	index := make(map[int64]int, len(ids))
	tr := &oracle.Trace{Events: make([]oracle.Event, len(ids))}
	for i, id := range ids {
		index[id] = i
		e := ev.byID[id]
		vals := make(map[string]tuple.Value, len(e.vals))
		for k, f := range ev.reg.Lookup(e.tp).Schema() {
			vals[f] = e.vals[k]
		}
		// A parent fired before its child, so its set is already closed.
		before := make(map[int]bool)
		for _, pid := range e.parents {
			p := index[pid]
			before[p] = true
			for a := range tr.Events[p].Before {
				before[a] = true
			}
		}
		tr.Events[i] = oracle.Event{Tracepoint: e.tp, Values: vals, Before: before}
	}
	return oracle.Evaluate(ev.q, ev.reg, tr)
}
