//go:build !race

package baggage

// Allocation-regression tests. Excluded under -race: the race detector's
// instrumentation adds bookkeeping allocations that would fail these
// assertions for reasons unrelated to the code under test.

import (
	"context"
	"testing"

	"repro/internal/tuple"
)

// aggSpec (GroupBy key, SUM) is shared with budget_test.go.

func TestAllocSteadyStatePackBudgetedIsAllocationFree(t *testing.T) {
	spec := aggSpec()
	bag := New()
	row := tuple.Tuple{tuple.String("host-1"), tuple.Int(1)}
	bag.PackBudgeted("q.a", spec, Budget{}, row) // create the group (cold)
	if n := testing.AllocsPerRun(1000, func() {
		bag.PackBudgeted("q.a", spec, Budget{}, row)
	}); n != 0 {
		t.Errorf("steady-state PackBudgeted into an existing AGG group allocates "+
			"%.1f objects/op, want 0 (regression in the pooled pack path)", n)
	}
}

func TestAllocSteadyStatePackIsAllocationFree(t *testing.T) {
	spec := aggSpec()
	bag := New()
	row := tuple.Tuple{tuple.String("host-1"), tuple.Int(1)}
	bag.Pack("q.a", spec, row) // create the group (cold)
	if n := testing.AllocsPerRun(1000, func() {
		bag.Pack("q.a", spec, row)
	}); n != 0 {
		t.Errorf("steady-state Pack into an existing AGG group allocates "+
			"%.1f objects/op, want 0 (regression in the pooled pack path)", n)
	}
}

func TestAllocByteSizeIsSingleBufferFree(t *testing.T) {
	bag := New()
	spec := aggSpec()
	for i := 0; i < 8; i++ {
		bag.Pack("q.a", spec, tuple.Tuple{tuple.String("h"), tuple.Int(int64(i))})
	}
	bag.ByteSize() // warm the scratch pool
	if n := testing.AllocsPerRun(200, func() {
		bag.ByteSize()
	}); n != 0 {
		t.Errorf("ByteSize on decoded baggage allocates %.1f objects/op, want 0 "+
			"(regression in the pooled sizing path)", n)
	}
}

// hbBaggage is the baggage of the happened-before request at its process
// boundary: one instance holding one FIRST slot with one tuple.
func hbBaggage() *Baggage {
	bag := New()
	bag.Pack("q.g", SetSpec{Kind: First, Fields: tuple.Schema{"tenant"}}, tuple.Tuple{tuple.String("tenant-1")})
	return bag
}

// The ceilings below are the measured counts of the shared-instance
// design; a rise means something immutable is being copied again.

func TestAllocSplitSharesFrozenInstances(t *testing.T) {
	bag := hbBaggage()
	// Per branch: the Baggage (here it does not escape), its instance
	// list, its empty active instance — whatever the receiver holds.
	if n := testing.AllocsPerRun(1000, func() { bag.Split() }); n > 6 {
		t.Errorf("Split allocates %.1f objects/op, want <= 6 (is it copying frozen instances?)", n)
	}
}

func TestAllocJoinSharesFrozenInstances(t *testing.T) {
	l, r := hbBaggage().Split()
	// The joined Baggage, its instance list and its active instance.
	if n := testing.AllocsPerRun(1000, func() { Join(l, r) }); n > 3 {
		t.Errorf("Join of two empty branches allocates %.1f objects/op, want <= 3", n)
	}
}

// A context hop is one object: the node holds the baggage by value. The
// pins store what they build in sink, so that no node lives on the stack.
var sink [2]context.Context

func TestAllocSplitContextsIsOneNodePerBranch(t *testing.T) {
	ctx := NewContext(context.Background(), hbBaggage())
	// Per branch: the node, its instance list, its empty active instance.
	if n := testing.AllocsPerRun(1000, func() { sink[0], sink[1] = SplitContexts(ctx) }); n > 6 {
		t.Errorf("SplitContexts allocates %.1f objects/op, want <= 6", n)
	}
}

func TestAllocJoinContextIsOneNode(t *testing.T) {
	ctx := NewContext(context.Background(), hbBaggage())
	l, r := SplitContexts(ctx)
	// The node, its instance list and its active instance.
	if n := testing.AllocsPerRun(1000, func() { sink[0] = JoinContext(ctx, l, r) }); n > 3 {
		t.Errorf("JoinContext of two empty branches allocates %.1f objects/op, want <= 3", n)
	}
}

func TestAllocExtractContextIsOneNode(t *testing.T) {
	wire := hbBaggage().Serialize()
	// The node and its copy of the bytes.
	if n := testing.AllocsPerRun(1000, func() { sink[0] = ExtractContext(context.Background(), wire) }); n > 2 {
		t.Errorf("ExtractContext allocates %.1f objects/op, want <= 2", n)
	}
}

func TestAllocUnpackOfOneContributionCopiesNoTuple(t *testing.T) {
	l, _ := hbBaggage().Split()
	// The returned slice only.
	if n := testing.AllocsPerRun(1000, func() { l.Unpack("q.g") }); n > 1 {
		t.Errorf("Unpack of a slot one instance contributes to allocates %.1f objects/op, want <= 1", n)
	}
}

func TestAllocDeserializeAndFirstTouch(t *testing.T) {
	wire := hbBaggage().Serialize()
	// Deserialize: its copy of the bytes (the Baggage does not escape
	// here). First touch: the instance list, the instance, its slot list,
	// the slot name, the set, its field list and field name, its tuple
	// list, the tuple and its string.
	if n := testing.AllocsPerRun(1000, func() { Deserialize(wire).TupleCount() }); n > 11 {
		t.Errorf("Deserialize + first touch allocates %.1f objects/op, want <= 11", n)
	}
}
