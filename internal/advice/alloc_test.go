//go:build !race

package advice

// Allocation-regression tests. Excluded under -race: the race detector's
// instrumentation adds bookkeeping allocations that would fail these
// assertions for reasons unrelated to the code under test.

import (
	"context"
	"testing"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/tuple"
)

func TestAllocAccumulatorAddSteadyStateIsAllocationFree(t *testing.T) {
	acc := NewAccumulator(aggOp())
	w := tuple.Tuple{tuple.String("host-1"), tuple.Int(1)}
	acc.Add(w) // create the group (cold)
	if n := testing.AllocsPerRun(1000, func() {
		acc.Add(w)
	}); n != 0 {
		t.Errorf("steady-state Accumulator.Add into an existing group allocates "+
			"%.1f objects/op, want 0 (regression in the scratch-key lookup path)", n)
	}
}

// TestAllocShardedAddSteadyStateIsAllocationFree: the agent's path — Add
// under the lock, into an accumulator that has been drained — allocates
// nothing once the interval's group exists.
func TestAllocShardedAddSteadyStateIsAllocationFree(t *testing.T) {
	s := NewAccumulator(aggOp())
	w := tuple.Tuple{tuple.String("host-1"), tuple.Int(1)}
	s.Add(w)
	s.Drain()
	s.Add(w) // create this interval's group (cold)
	if n := testing.AllocsPerRun(1000, func() {
		s.Add(w)
	}); n != 0 {
		t.Errorf("steady-state Add after a Drain allocates %.1f objects/op, "+
			"want 0 (regression in the locked or scratch-key path)", n)
	}
}

// wideTuples returns n working tuples with distinct group keys.
func wideTuples(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Int(1)}
	}
	return out
}

// TestAllocNewGroupPerRow: a row costs the tier that creates it no object
// of its own; the group, its states, its Rep and the bytes of its key and
// Rep strings come out of slabs, whose chunks (and the growth of the
// table) add a few hundred allocations to 8192 rows in an accumulator that
// knows nothing yet, and a handful in one that Reset sized from the
// interval before.
func TestAllocNewGroupPerRow(t *testing.T) {
	const rows = 8192
	ws := wideTuples(rows)
	fill := func(acc *Accumulator) {
		for _, w := range ws {
			acc.Add(w)
		}
	}
	if n := testing.AllocsPerRun(5, func() { fill(NewAccumulator(aggOp())) }) / rows; n > 0.1 {
		t.Errorf("a fresh accumulator allocates %.3f objects per new group, want at most 0.1", n)
	}
	acc := NewAccumulator(aggOp())
	fill(acc)
	if n := testing.AllocsPerRun(5, func() { acc.Reset(); fill(acc) }) / rows; n > 0.01 {
		t.Errorf("an accumulator sized by Reset allocates %.3f objects per new group, want at most 0.01", n)
	}
}

// TestAllocMergeExistingIsAllocationFree: a tier that merges a row it
// already holds allocates nothing — no clone, and no shape template for
// the check (checkShape used to build one per report on an empty merger).
func TestAllocMergeExistingIsAllocationFree(t *testing.T) {
	acc := NewAccumulator(aggOp())
	for _, w := range wideTuples(64) {
		acc.Add(w)
	}
	groups := acc.Groups()
	m := NewMerger(aggOp(), Limits{})
	mustMerge(t, m, groups, nil, nil)
	if n := testing.AllocsPerRun(100, func() { mustMerge(t, m, groups, nil, nil) }); n != 0 {
		t.Errorf("merging 64 groups the merger holds allocates %.1f objects, want 0", n)
	}
	empty := NewMerger(aggOp(), Limits{})
	if n := testing.AllocsPerRun(100, func() {
		if err := empty.checkShape(groups); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checkShape on an empty merger allocates %.1f objects, want 0", n)
	}
}

// TestAllocRawsAtCapAmortized: a raw query sitting at its cap used to copy
// every kept row to a new array for each row added. Eviction is now a
// move of the slice's front; the array is replaced when append finds it
// full, a quarter of the cap apart.
func TestAllocRawsAtCapAmortized(t *testing.T) {
	const max = 1024
	m := NewMerger(rawOp(), Limits{MaxRaws: max})
	row := []tuple.Tuple{kvRow("k", 0)}
	for i := 0; i < max; i++ {
		mustMerge(t, m, nil, row, nil)
	}
	const adds = 8 * max
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < adds; i++ {
			mustMerge(t, m, nil, row, nil)
		}
	}) / adds; n > 0.05 {
		t.Errorf("adding a raw row at the cap allocates %.3f objects, want at most 0.05", n)
	}
	if got := m.rawsDropped; got != 2*adds { // AllocsPerRun runs its function once to warm up
		t.Errorf("RawsDropped = %d, want %d", got, 2*adds)
	}
}

// accEmitter folds every emitted tuple into one accumulator, as the agent
// does.
type accEmitter struct{ acc *Accumulator }

func (e accEmitter) EmitTuple(_ *Program, w tuple.Tuple) { e.acc.Add(w) }

// TestAllocFilteredComputedFire: a fire whose program filters and then
// folds a computed column into a group that exists allocates nothing. The
// expressions were bound to positions when the program was built, and
// each working tuple has room for the computed column, whether it is the
// observe projection or a joined tuple carved from the fire's arena.
func TestAllocFilteredComputedFire(t *testing.T) {
	q, err := query.Parse(`From e In Tp Join s In Src On s -> e Where e.v > 10 && s.host != e.host Select e.host, SUM(e.v * 2)`)
	if err != nil {
		t.Fatal(err)
	}
	bindings := map[query.FieldRef]int{
		{Alias: "e", Field: "host"}: 0, {Alias: "e", Field: "v"}: 1, {Alias: "s", Field: "host"}: 2,
	}
	bag := baggage.New()
	bag.Pack("q.s", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"s.host"}}, tuple.Tuple{tuple.String("src")})
	ctx := baggage.NewContext(context.Background(), bag)
	vals := exported("h1", 0, "p", tuple.Int(50))
	// Without the join, s.host lies past the working tuple and reads null,
	// which differs from e.host as "src" does.
	for _, tc := range []struct {
		name    string
		unpacks []UnpackOp
		sumPos  int // where the computed column lands: after the joined fields
	}{
		{"observed", nil, 2},
		{"joined", []UnpackOp{{Slot: "q.s", Fields: tuple.Schema{"s.host"}}}, 3},
	} {
		emit := &EmitOp{
			Cols:    []EmitCol{{Pos: 0}, {IsAgg: true, Pos: tc.sumPos, Fn: agg.Sum}},
			GroupBy: []int{0},
			Schema:  tuple.Schema{"e.host", "SUM((e.v * 2))"},
		}
		acc := NewAccumulator(emit)
		prog := &Program{
			QueryID: "q", Tracepoint: "Tp",
			Observe: []int{0, 5}, ObserveFields: tuple.Schema{"e.host", "e.v"},
			Unpacks:  tc.unpacks,
			Filters:  []Expr{BindExpr(q.Where[0], bindings)},
			Computes: []Expr{BindExpr(q.Select[1].Expr, bindings)},
			Emit:     emit,
		}
		a := &Advice{Prog: prog, Emitter: accEmitter{acc}}
		a.Invoke(ctx, vals) // create the group (cold)
		if n := testing.AllocsPerRun(1000, func() { a.Invoke(ctx, vals) }); n != 0 {
			t.Errorf("%s: a filtered, computed fire allocates %.1f objects, want 0", tc.name, n)
		}
		if g := acc.Groups(); len(g) != 1 || g[0].States[0].Result().Int() != 100*1002 {
			t.Errorf("%s: groups = %v, want one with SUM %d", tc.name, g, 100*1002)
		}
	}
}

// TestAllocDrainPassesTableOn: an interval over the keys of the one
// before allocates no group table, because Drain hands the drained one on,
// cleared. What is left is one chunk per slab (groups, states, Rep values,
// key bytes), each sized by the interval before, and Drain's own one: its
// successor's first-seen order.
func TestAllocDrainPassesTableOn(t *testing.T) {
	const rows = 8192
	ws := wideTuples(rows)
	acc := NewAccumulator(aggOp())
	interval := func() {
		for _, w := range ws {
			acc.Add(w)
		}
		if groups, _, _ := acc.Drain(); len(groups) != rows {
			t.Fatalf("drained %d groups, want %d", len(groups), rows)
		}
	}
	interval()
	const want = 4 + 1
	if n := testing.AllocsPerRun(5, interval); n != want {
		t.Errorf("an interval over the same %d keys allocates %.1f objects, want %d", rows, n, want)
	}
}
