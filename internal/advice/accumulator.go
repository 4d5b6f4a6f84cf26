package advice

import (
	"repro/internal/tuple"
)

// Accumulator aggregates emitted working tuples for one EmitOp: a Merger
// plus the fold-in path (Add) that turns working tuples into groups and
// raw rows. Agents hold these (striped, see ShardedAccumulator); everything
// downstream of an agent holds a plain Merger.
type Accumulator struct {
	Merger

	// keyScratch is the reused buffer Add builds group keys in. Neither the
	// map lookup via string(keyScratch) nor newGroup, which copies the key
	// into the byte slab, lets that conversion escape, so it allocates
	// nothing for a key of up to 32 bytes. Accumulator is not safe for
	// concurrent use, so a single scratch suffices.
	keyScratch []byte
}

// NewAccumulator returns an empty accumulator for op with default limits.
func NewAccumulator(op *EmitOp) *Accumulator {
	return &Accumulator{Merger: *NewMerger(op, Limits{})}
}

// Add folds one emitted working tuple at unit weight.
func (a *Accumulator) Add(w tuple.Tuple) { a.AddWeighted(w, 1) }

// AddWeighted folds one emitted working tuple carrying a sampling
// weight (1/rate for tuples from a sampled request). Raw rows are
// appended as-is — sampling a raw query thins the rows, there is
// nothing to scale — while aggregate columns fold through the weighted
// state path, marking the group's states inexact when weight != 1.
func (a *Accumulator) AddWeighted(w tuple.Tuple, weight float64) {
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
