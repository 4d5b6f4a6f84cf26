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
	bag.PackBudgeted("q", "q.a", spec, Budget{}, row) // create the group (cold)
	if n := testing.AllocsPerRun(1000, func() {
		bag.PackBudgeted("q", "q.a", spec, Budget{}, row)
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

// The ceilings below are the measured counts of the shared-instance
// design; a rise means something immutable is being copied again.

func TestAllocSplitSharesFrozenInstances(t *testing.T) {
	bag := hbBaggage()
	// Per branch one object, holding the Baggage, its empty active
	// instance and its instance list — whatever the receiver holds.
	if n := testing.AllocsPerRun(1000, func() { bag.Split() }); n > 2 {
		t.Errorf("Split allocates %.1f objects/op, want <= 2 (is it copying frozen instances?)", n)
	}
}

func TestAllocJoinSharesFrozenInstances(t *testing.T) {
	l, r := hbBaggage().Split()
	// One object, holding the joined Baggage, its active instance and its
	// instance list.
	if n := testing.AllocsPerRun(1000, func() { Join(l, r) }); n > 1 {
		t.Errorf("Join of two empty branches allocates %.1f objects/op, want <= 1", n)
	}
}

// A context hop is one object: the node holds the baggage by value. The
// pins store what they build in sink, so that no node lives on the stack.
var sink [2]context.Context

func TestAllocSplitContextsIsOneNodePerBranch(t *testing.T) {
	ctx := NewContext(context.Background(), hbBaggage())
	// Per branch the node, which holds the empty active instance and the
	// instance list.
	if n := testing.AllocsPerRun(1000, func() { sink[0], sink[1] = SplitContexts(ctx) }); n > 2 {
		t.Errorf("SplitContexts allocates %.1f objects/op, want <= 2", n)
	}
}

func TestAllocJoinContextIsOneNode(t *testing.T) {
	ctx := NewContext(context.Background(), hbBaggage())
	l, r := SplitContexts(ctx)
	// The node, which holds the active instance and the instance list.
	if n := testing.AllocsPerRun(1000, func() { sink[0] = JoinContext(ctx, l, r) }); n > 1 {
		t.Errorf("JoinContext of two empty branches allocates %.1f objects/op, want <= 1", n)
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
	// Unpack: the returned slice only. AppendUnpack into a slice with room:
	// nothing.
	if n := testing.AllocsPerRun(1000, func() { l.Unpack("q.g") }); n > 1 {
		t.Errorf("Unpack of a slot one instance contributes to allocates %.1f objects/op, want <= 1", n)
	}
	dst := make([]tuple.Tuple, 0, 1)
	if n := testing.AllocsPerRun(1000, func() { dst = l.AppendUnpack(dst[:0], "q.g") }); n != 0 {
		t.Errorf("AppendUnpack into a slice with room allocates %.1f objects/op, want 0", n)
	}
}

func TestAllocDeserializeAndFirstTouch(t *testing.T) {
	wire := hbBaggage().Serialize()
	// Deserialize: its copy of the bytes (the Baggage does not escape
	// here). First touch: the instance with its list, its slot list, the
	// set with its one tuple, its field list, and the tuple's values. The
	// slot name, the field name and the string value borrow the copy.
	if n := testing.AllocsPerRun(1000, func() { Deserialize(wire).TupleCount() }); n > 6 {
		t.Errorf("Deserialize + first touch allocates %.1f objects/op, want <= 6", n)
	}
}

// TestAllocDecodeIsIndependentOfTupleCount: a decoded set's tuples are cut
// from one slab of values, so Deserialize + Unpack costs the same number of
// objects for 2 tuples as for 256. One tuple costs one fewer: a set keeps a
// lone tuple inline instead of in a list of its own.
func TestAllocDecodeIsIndependentOfTupleCount(t *testing.T) {
	spec := SetSpec{Kind: All, Fields: tuple.Schema{"v", "s"}}
	cost := func(n int) float64 {
		bag := New()
		for i := 0; i < n; i++ {
			bag.Pack("q.a", spec, tuple.Tuple{tuple.Int(int64(i)), tuple.String("s")})
		}
		wire := bag.Serialize()
		return testing.AllocsPerRun(100, func() {
			if got := len(Deserialize(wire).Unpack("q.a")); got != n {
				t.Fatalf("unpacked %d tuples, want %d", got, n)
			}
		})
	}
	one, two, many := cost(1), cost(2), cost(256)
	if one != 7 || two != 8 || many != 8 {
		t.Errorf("Deserialize + Unpack allocates %.1f / %.1f / %.1f objects for 1 / 2 / 256 tuples, want 7 / 8 / 8", one, two, many)
	}
}
