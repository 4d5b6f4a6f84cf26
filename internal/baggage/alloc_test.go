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
	// One object for both branches, each holding the Baggage, its empty
	// active instance and its instance list — whatever the receiver holds.
	if n := testing.AllocsPerRun(1000, func() { bag.Split() }); n > 1 {
		t.Errorf("Split allocates %.1f objects/op, want <= 1 (is it copying frozen instances?)", n)
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
	// The two branch nodes in one object, each holding its empty active
	// instance and the instance list.
	if n := testing.AllocsPerRun(1000, func() { sink[0], sink[1] = SplitContexts(ctx) }); n > 1 {
		t.Errorf("SplitContexts allocates %.1f objects/op, want <= 1", n)
	}
}

func TestAllocJoinContextIsOneNode(t *testing.T) {
	ctx := NewContext(context.Background(), hbBaggage())
	l, r := SplitContexts(ctx)
	// The node, which holds the active instance and the instance list.
	if n := testing.AllocsPerRun(1000, func() { sink[0], _ = JoinContext(ctx, l, r) }); n > 1 {
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
	dst, vals := make([]tuple.Tuple, 0, 1), make(tuple.Tuple, 0, 1)
	if n := testing.AllocsPerRun(1000, func() { dst, vals, _ = l.AppendUnpack(dst[:0], vals[:0], "q.g") }); n != 0 {
		t.Errorf("AppendUnpack into a slice with room allocates %.1f objects/op, want 0", n)
	}
}

func TestAllocDeserializeAndFirstTouch(t *testing.T) {
	wire := hbBaggage().Serialize()
	// Deserialize: its copy of the bytes (the Baggage does not escape
	// here). First touch: the instance with its list and its slot index,
	// whose name, spec and content are views of the copy.
	if n := testing.AllocsPerRun(1000, func() { Deserialize(wire).TupleCount() }); n > 2 {
		t.Errorf("Deserialize + first touch allocates %.1f objects/op, want <= 2", n)
	}
}

// TestAllocDecodeIsIndependentOfTupleCount: a decode indexes the bytes and
// an unpack decodes the tuples into one slab of values, so Deserialize +
// Unpack costs the same four objects for 1, 2 or 256 tuples: the copy of
// the bytes, the index, the returned slice and the values.
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
	if one != 4 || two != 4 || many != 4 {
		t.Errorf("Deserialize + Unpack allocates %.1f / %.1f / %.1f objects for 1 / 2 / 256 tuples, want 4 / 4 / 4", one, two, many)
	}
}

// TestAllocPackFromEncodesTheProjection: advice packs its working tuple by
// encoding the projection into the slot. A first pack is the instance with
// its list and slot index, and the slot's bytes; a FIRST slot that already
// holds its tuple takes nothing; an unpack of what was packed decodes into
// slices with room.
func TestAllocPackFromEncodesTheProjection(t *testing.T) {
	spec := SetSpec{Kind: First, Fields: tuple.Schema{"tenant"}}
	w, src := tuple.Tuple{tuple.Int(7), tuple.String("tenant-1")}, []int{1}
	var bag *Baggage
	if n := testing.AllocsPerRun(1000, func() {
		bag = New()
		bag.PackFrom("q", "q.g", spec, Budget{}, w, src)
	}); n > 3 {
		t.Errorf("a first PackFrom allocates %.1f objects/op, want <= 3 (the Baggage, the instance, the bytes)", n)
	}
	if n := testing.AllocsPerRun(1000, func() { bag.PackFrom("q", "q.g", spec, Budget{}, w, src) }); n != 0 {
		t.Errorf("PackFrom into a full FIRST slot allocates %.1f objects/op, want 0", n)
	}
	dst, vals := make([]tuple.Tuple, 0, 1), make(tuple.Tuple, 0, 1)
	if n := testing.AllocsPerRun(1000, func() { dst, vals, _ = bag.AppendUnpack(dst[:0], vals[:0], "q.g") }); n != 0 {
		t.Errorf("AppendUnpack of an encoded slot into slices with room allocates %.1f objects/op, want 0", n)
	}
	if len(dst) != 1 || !dst[0].Equal(tuple.Tuple{tuple.String("tenant-1")}) {
		t.Errorf("unpacked %v, want [(tenant-1)]", dst)
	}
}
