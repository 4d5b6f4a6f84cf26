package advice

import (
	"sync"

	"repro/internal/tuple"
)

// Accumulator aggregates emitted working tuples for one EmitOp: a Merger
// plus the fold-in path (Add) that turns working tuples into groups and
// raw rows. An agent holds one per installed query, and folds every
// tuple the query emits in the process into it; everything downstream of
// an agent holds a plain Merger.
//
// Add, Drain and the drop counters take the accumulator's lock, so
// concurrent tracepoint fires may share it; the Merger methods it
// inherits take none.
type Accumulator struct {
	mu sync.Mutex
	Merger

	// adds counts the tuples folded in since the last Drain.
	adds int64

	// keyScratch is the reused buffer Add builds group keys in. Neither the
	// map lookup via string(keyScratch) nor newGroup, which copies the key
	// into the byte slab, lets that conversion escape, so it allocates
	// nothing for a key of up to 32 bytes. Add holds the lock, so a single
	// scratch suffices.
	keyScratch []byte
}

// NewAccumulator returns an empty accumulator for op with default limits.
func NewAccumulator(op *EmitOp) *Accumulator {
	return &Accumulator{Merger: *NewMerger(op, Limits{})}
}

// NewShardedAccumulator is NewAccumulator; it stays for bench/'s layer benchmarks.
func NewShardedAccumulator(op *EmitOp, _ int) *Accumulator { return NewAccumulator(op) }

// Add folds one emitted working tuple at unit weight.
func (a *Accumulator) Add(w tuple.Tuple) { a.AddWeighted(w, 1) }

// AddWeighted folds one emitted working tuple carrying a sampling
// weight (1/rate for tuples from a sampled request). Raw rows are
// appended as-is — sampling a raw query thins the rows, there is
// nothing to scale — while aggregate columns fold through the weighted
// state path, marking the group's states inexact when weight != 1.
func (a *Accumulator) AddWeighted(w tuple.Tuple, weight float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.adds++
	if a.Op.Raw {
		row := make(tuple.Tuple, len(a.Op.Cols))
		for i, col := range a.Op.Cols {
			row[i] = w[col.Pos]
		}
		a.raws = append(a.raws, row)
		a.capRaws()
		return
	}
	a.keyScratch = w.AppendKey(a.keyScratch[:0], a.Op.GroupBy)
	g, ok := a.groups[string(a.keyScratch)]
	if !ok {
		if a.atGroupCap() {
			a.groupsOverflowed++
			g = a.overflowGroup(w)
		} else {
			g = a.newGroup(string(a.keyScratch), w, a.empty)
		}
	}
	k := 0
	for _, col := range a.Op.Cols {
		if !col.IsAgg {
			continue
		}
		if col.Pos >= 0 {
			g.States[k].AddWeighted(w[col.Pos], weight)
		} else {
			g.States[k].AddWeighted(tuple.Null, weight) // bare COUNT
		}
		k++
	}
}

// Drain hands over the groups and raw rows folded in since the last
// Drain, and how many tuples that was, leaving an empty merger sized from
// them in its place (merge-on-flush: the caller owns the result outright
// and may publish it, and the accumulator never writes to it again). An
// agent's reports are kept — by its outage ring, by subscribers on its
// bus — so Drain never lends: it retires the handoff's rows at once (see
// Handoff). With nothing folded in it returns nil, nil and 0, and copies
// no merger.
func (a *Accumulator) Drain() (groups []*Group, raws []tuple.Tuple, n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.adds > 0 {
		m := a.Handoff()
		a.retire()
		groups, raws, n, a.adds = m.Groups(), m.Raws(), a.adds, 0
	}
	return groups, raws, n
}

// CapCounts is Merger.CapCounts, under the accumulator's lock.
func (a *Accumulator) CapCounts() (rawsDropped, groupsOverflowed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.Merger.CapCounts()
}
