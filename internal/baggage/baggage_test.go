package baggage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/tuple"
)

func allSpec(fields ...string) SetSpec {
	return SetSpec{Kind: All, Fields: fields}
}

func TestPackUnpackRoundtrip(t *testing.T) {
	b := New()
	spec := allSpec("procName")
	b.Pack("q1.0", spec, tuple.Tuple{tuple.String("HGET")})
	b.Pack("q1.0", spec, tuple.Tuple{tuple.String("HSCAN")})
	got := b.Unpack("q1.0")
	if len(got) != 2 || got[0][0].Str() != "HGET" || got[1][0].Str() != "HSCAN" {
		t.Fatalf("Unpack = %v", got)
	}
}

// TestNonceWidthIsFixed pins the encoded width of every instance nonce:
// simulated RPCs charge virtual time per serialized byte, so a width that
// varied with the process's random draw would change simulated timelines.
func TestNonceWidthIsFixed(t *testing.T) {
	for i := 0; i < 1000; i++ {
		n := newNonce()
		if w := len(binary.AppendUvarint(nil, n)); w != binary.MaxVarintLen64 {
			t.Fatalf("nonce %#x encodes to %d bytes, want %d", n, w, binary.MaxVarintLen64)
		}
	}
}

func TestUnpackMissingSlot(t *testing.T) {
	if got := New().Unpack("nope"); got != nil {
		t.Fatalf("Unpack missing slot = %v, want nil", got)
	}
}

func TestFirstSemantics(t *testing.T) {
	b := New()
	spec := SetSpec{Kind: First, Fields: tuple.Schema{"v"}}
	b.Pack("s", spec, tuple.Tuple{tuple.Int(1)}, tuple.Tuple{tuple.Int(2)})
	b.Pack("s", spec, tuple.Tuple{tuple.Int(3)})
	got := b.Unpack("s")
	if len(got) != 1 || got[0][0].Int() != 1 {
		t.Fatalf("FIRST = %v, want [(1)]", got)
	}
}

func TestRecentSemantics(t *testing.T) {
	b := New()
	spec := SetSpec{Kind: Recent, Fields: tuple.Schema{"v"}}
	for i := int64(1); i <= 5; i++ {
		b.Pack("s", spec, tuple.Tuple{tuple.Int(i)})
	}
	got := b.Unpack("s")
	if len(got) != 1 || got[0][0].Int() != 5 {
		t.Fatalf("RECENT = %v, want [(5)]", got)
	}
}

func TestFirstNAndRecentN(t *testing.T) {
	b := New()
	fn := SetSpec{Kind: FirstN, N: 2, Fields: tuple.Schema{"v"}}
	rn := SetSpec{Kind: RecentN, N: 2, Fields: tuple.Schema{"v"}}
	for i := int64(1); i <= 4; i++ {
		b.Pack("f", fn, tuple.Tuple{tuple.Int(i)})
		b.Pack("r", rn, tuple.Tuple{tuple.Int(i)})
	}
	f := b.Unpack("f")
	if len(f) != 2 || f[0][0].Int() != 1 || f[1][0].Int() != 2 {
		t.Fatalf("FIRSTN = %v", f)
	}
	r := b.Unpack("r")
	if len(r) != 2 || r[0][0].Int() != 3 || r[1][0].Int() != 4 {
		t.Fatalf("RECENTN = %v", r)
	}
}

func TestAggPackAggregatesInPlace(t *testing.T) {
	b := New()
	spec := SetSpec{
		Kind:    Agg,
		Fields:  tuple.Schema{"host", "delta"},
		GroupBy: []int{0},
		Aggs:    []AggField{{Pos: 1, Fn: agg.Sum}},
	}
	b.Pack("s", spec, tuple.Tuple{tuple.String("a"), tuple.Int(10)})
	b.Pack("s", spec, tuple.Tuple{tuple.String("b"), tuple.Int(5)})
	b.Pack("s", spec, tuple.Tuple{tuple.String("a"), tuple.Int(7)})
	got := b.Unpack("s")
	if len(got) != 2 {
		t.Fatalf("AGG groups = %v", got)
	}
	if got[0][0].Str() != "a" || got[0][1].Int() != 17 {
		t.Errorf("group a = %v, want (a, 17)", got[0])
	}
	if got[1][0].Str() != "b" || got[1][1].Int() != 5 {
		t.Errorf("group b = %v, want (b, 5)", got[1])
	}
	// Aggregated pack keeps tuple count at #groups, not #packs.
	if b.TupleCount() != 2 {
		t.Errorf("TupleCount = %d, want 2", b.TupleCount())
	}
}

// TestConflictingSpecReplacesSlot: a slot stored under another spec than
// the packer's — bytes a peer wrote — is replaced by what the packer packs,
// whichever pack path meets it, and each replacement is one conflict in
// the PackStats the packer gets back. Nothing panics.
func TestConflictingSpecReplacesSlot(t *testing.T) {
	foreign := New()
	foreign.Pack("s", allSpec("x", "y"), tuple.Tuple{tuple.Int(7), tuple.Int(8)})
	wire := foreign.Serialize()
	first := SetSpec{Kind: First, Fields: tuple.Schema{"a"}}
	for name, pack := range map[string]func(b *Baggage) PackStats{
		"Pack": func(b *Baggage) PackStats {
			return b.Pack("s", first, tuple.Tuple{tuple.Int(2)})
		},
		"PackBudgeted": func(b *Baggage) PackStats {
			return b.PackBudgeted("q", "s", first, Budget{}, tuple.Tuple{tuple.Int(2)})
		},
		"PackFrom": func(b *Baggage) PackStats {
			return b.PackFrom("q", "s", allSpec("a"), Budget{}, tuple.Tuple{tuple.Int(0), tuple.Int(2)}, []int{1})
		},
	} {
		b := Deserialize(wire)
		st := pack(b)
		for _, got := range [][]tuple.Tuple{b.Unpack("s"), Deserialize(b.Serialize()).Unpack("s")} {
			if len(got) != 1 || !got[0].Equal(tuple.Tuple{tuple.Int(2)}) {
				t.Errorf("%s: slot unpacks %v, want only the packer's (2)", name, got)
			}
		}
		if st.Conflicts != 1 {
			t.Errorf("%s: %d conflicts counted, want 1", name, st.Conflicts)
		}
		if st = pack(b); st.Conflicts != 0 {
			t.Errorf("%s: a second pack under the packer's own spec counts %d conflicts, want 0", name, st.Conflicts)
		}
	}
}

// TestMergeConflictsAreReturned: two contributions to one slot under
// different specs merge into one, dropping the other, and the join or the
// unpack that merged them returns the one conflict.
func TestMergeConflictsAreReturned(t *testing.T) {
	a, b := New().Split()
	a.Pack("s", allSpec("x"), tuple.Tuple{tuple.Int(1)})
	b.Pack("s", allSpec("x", "y"), tuple.Tuple{tuple.Int(2), tuple.Int(3)})
	l, r := NewContext(context.Background(), a), NewContext(context.Background(), b)
	j, conflicts := JoinContext(context.Background(), l, r)
	if got := FromContext(j).Unpack("s"); conflicts != 1 || len(got) != 1 || !got[0].Equal(tuple.Tuple{tuple.Int(1)}) {
		t.Errorf("join: %d conflicts, unpacks %v; want 1 and [(1)]", conflicts, got)
	}
	// A frozen instance and the active one disagree: the unpack merges.
	root := New()
	root.Pack("s", allSpec("x"), tuple.Tuple{tuple.Int(1)})
	branch, _ := root.Split()
	branch.Pack("s", allSpec("x", "y"), tuple.Tuple{tuple.Int(2), tuple.Int(3)})
	if got, _, conflicts := branch.AppendUnpack(nil, nil, "s"); conflicts != 1 || len(got) != 1 {
		t.Errorf("unpack: %d conflicts, unpacks %v; want 1 and one row", conflicts, got)
	}
}

func TestSerializeEmptyIsZeroBytes(t *testing.T) {
	if n := New().ByteSize(); n != 0 {
		t.Fatalf("empty baggage serializes to %d bytes, want 0", n)
	}
	var b *Baggage
	if b.Serialize() != nil || b.ByteSize() != 0 {
		t.Fatal("nil baggage should serialize to nothing")
	}
}

// TestSerializedSizes pins what the bookkeeping of split and join costs on
// the wire, for one packed FIRST tuple: an instance is its nonce, its slot
// count and its slots, and nothing else. A new per-instance field shows up
// here as a diff.
func TestSerializedSizes(t *testing.T) {
	one := New()
	one.Pack("q1", SetSpec{Kind: First}, tuple.Tuple{tuple.String("tenant-a")})
	branch, _ := one.Split()
	// An 8-way fan-out is three levels of binary splits; it joins back
	// pairwise.
	level := []*Baggage{one}
	for range 3 {
		var next []*Baggage
		for _, b := range level {
			l, r := b.Split()
			next = append(next, l, r)
		}
		level = next
	}
	leaf := level[0]
	for len(level) > 1 {
		var next []*Baggage
		for i := 0; i < len(level); i += 2 {
			next = append(next, Join(level[i], level[i+1]))
		}
		level = next
	}
	for _, c := range []struct {
		name string
		b    *Baggage
		want int
	}{
		{"one instance", one, 32},
		{"a branch after one split", branch, 43},
		{"a leaf of an 8-way fan-out", leaf, 65},
		{"that fan-out joined", level[0], 109},
	} {
		if n := len(c.b.Serialize()); n != c.want {
			t.Errorf("%s serializes to %d bytes, want %d", c.name, n, c.want)
		}
		if got := c.b.Unpack("q1"); len(got) != 1 || got[0][0].Str() != "tenant-a" {
			t.Errorf("%s unpacks %v", c.name, got)
		}
	}
}

// TestEmptySplitCarriesNothing: splitting empty baggage mints no instance,
// so a branching request with nothing packed carries zero bytes per branch,
// and the branches join back into empty baggage.
func TestEmptySplitCarriesNothing(t *testing.T) {
	l, r := New().Split()
	if nl, nr := len(l.Serialize()), len(r.Serialize()); nl != 0 || nr != 0 {
		t.Fatalf("the halves of an empty split serialize to %d and %d bytes, want 0 and 0", nl, nr)
	}
	if j := Join(l, r); !j.empty() || j.Serialize() != nil {
		t.Fatalf("the join of an empty split holds %d instances", len(j.insts))
	}
}

func TestSerializeDeserializeRoundtrip(t *testing.T) {
	b := New()
	b.Pack("q2.0", SetSpec{Kind: First, Fields: tuple.Schema{"procName"}},
		tuple.Tuple{tuple.String("MRSORT10G")})
	b.Pack("q3.0", allSpec("host", "port"),
		tuple.Tuple{tuple.String("h1"), tuple.Int(50010)})
	buf := b.Serialize()
	d := Deserialize(buf)
	got := d.Unpack("q2.0")
	if len(got) != 1 || got[0][0].Str() != "MRSORT10G" {
		t.Fatalf("roundtrip q2.0 = %v", got)
	}
	got = d.Unpack("q3.0")
	if len(got) != 1 || got[0][1].Int() != 50010 {
		t.Fatalf("roundtrip q3.0 = %v", got)
	}
}

func TestLazyDeserializePreservesBytesWithoutDecode(t *testing.T) {
	b := New()
	b.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(42)})
	buf := b.Serialize()
	d := Deserialize(buf)
	if d.raw == nil {
		t.Fatal("Deserialize should not eagerly decode")
	}
	out := d.Serialize()
	if d.raw == nil {
		t.Fatal("Serialize of untouched baggage should not decode")
	}
	if string(out) != string(buf) {
		t.Fatal("lazy round-trip changed bytes")
	}
}

func TestCorruptBaggageDropsSilently(t *testing.T) {
	d := Deserialize([]byte{99, 1, 2, 3})
	if got := d.Unpack("s"); got != nil {
		t.Fatalf("corrupt baggage unpacked %v", got)
	}
}

// TestEveryPrefixIsTruncated: whichever codec runs out of bytes — tuple,
// agg or this package's own — baggage cut short fails with the one
// sentinel, tuple.ErrTruncated, and never panics. The empty prefix is
// skipped: zero bytes are valid, empty baggage.
func TestEveryPrefixIsTruncated(t *testing.T) {
	for name, frame := range baggageSeeds(t) {
		if _, err := decodeInstances(frame); err != nil {
			continue // a malformed seed
		}
		for cut := 1; cut < len(frame); cut++ {
			if insts, err := decodeInstances(frame[:cut]); !errors.Is(err, tuple.ErrTruncated) {
				t.Errorf("%s cut at %d of %d: got %d instances, err %v, want tuple.ErrTruncated", name, cut, len(frame), len(insts), err)
			}
		}
	}
}

func TestSplitIsolatesBranches(t *testing.T) {
	b := New()
	b.Pack("pre", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	l, r := b.Split()
	l.Pack("left", allSpec("v"), tuple.Tuple{tuple.Int(2)})
	r.Pack("right", allSpec("v"), tuple.Tuple{tuple.Int(3)})

	// Both branches see pre-branch tuples.
	if got := l.Unpack("pre"); len(got) != 1 {
		t.Fatalf("left lost pre-branch tuples: %v", got)
	}
	if got := r.Unpack("pre"); len(got) != 1 {
		t.Fatalf("right lost pre-branch tuples: %v", got)
	}
	// Branch isolation: left's packs invisible to right and vice versa.
	if got := r.Unpack("left"); got != nil {
		t.Fatalf("right sees left's tuples: %v", got)
	}
	if got := l.Unpack("right"); got != nil {
		t.Fatalf("left sees right's tuples: %v", got)
	}
}

func TestJoinMergesBranchesWithoutDuplicatingPreBranchTuples(t *testing.T) {
	b := New()
	spec := SetSpec{Kind: Agg, Fields: tuple.Schema{"k", "v"},
		GroupBy: []int{0}, Aggs: []AggField{{Pos: 1, Fn: agg.Sum}}}
	b.Pack("sum", spec, tuple.Tuple{tuple.String("x"), tuple.Int(100)})
	l, r := b.Split()
	l.Pack("sum", spec, tuple.Tuple{tuple.String("x"), tuple.Int(10)})
	r.Pack("sum", spec, tuple.Tuple{tuple.String("x"), tuple.Int(1)})
	j := Join(l, r)
	got := j.Unpack("sum")
	if len(got) != 1 || got[0][1].Int() != 111 {
		t.Fatalf("joined sum = %v, want 111 (no double-count of pre-branch 100)", got)
	}
}

func TestNestedSplitJoin(t *testing.T) {
	b := New()
	spec := SetSpec{Kind: Agg, Fields: tuple.Schema{"v"},
		GroupBy: nil, Aggs: []AggField{{Pos: 0, Fn: agg.Count}}}
	b.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
	l, r := b.Split()
	l1, l2 := l.Split()
	l1.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
	l2.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
	l = Join(l1, l2)
	r.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
	j := Join(l, r)
	got := j.Unpack("c")
	if len(got) != 1 || got[0][0].Int() != 4 {
		t.Fatalf("nested join count = %v, want 4", got)
	}
}

func TestJoinWithNilAndEmpty(t *testing.T) {
	b := New()
	b.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	want := b.Serialize()
	for name, j := range map[string]*Baggage{
		"Join(nil, b)":   Join(nil, b),
		"Join(b, nil)":   Join(b, nil),
		"Join(empty, b)": Join(New(), b),
		"Join(b, empty)": Join(b, New()),
	} {
		if !bytes.Equal(j.Serialize(), want) {
			t.Errorf("%s serializes differently from b", name)
		}
		// The result shares b's active instance until it writes.
		j.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(2)})
		if len(j.Unpack("s")) != 2 || !bytes.Equal(b.Serialize(), want) {
			t.Errorf("%s: a pack into the result reached b", name)
		}
	}
	if j := Join(nil, nil); j.ByteSize() != 0 {
		t.Error("Join(nil, nil) should be empty")
	}
}

func TestSplitSerializeAcrossProcessesJoin(t *testing.T) {
	// Simulate branches traveling over the network: split, serialize each
	// half, deserialize remotely, pack, return, join.
	b := New()
	spec := SetSpec{Kind: Agg, Fields: tuple.Schema{"v"},
		Aggs: []AggField{{Pos: 0, Fn: agg.Sum}}}
	b.Pack("s", spec, tuple.Tuple{tuple.Int(1)})
	l, r := b.Split()
	lw := Deserialize(l.Serialize())
	rw := Deserialize(r.Serialize())
	lw.Pack("s", spec, tuple.Tuple{tuple.Int(10)})
	rw.Pack("s", spec, tuple.Tuple{tuple.Int(100)})
	j := Join(Deserialize(lw.Serialize()), Deserialize(rw.Serialize()))
	got := j.Unpack("s")
	if len(got) != 1 || got[0][0].Int() != 111 {
		t.Fatalf("cross-process join = %v, want 111", got)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("background context should have no baggage")
	}
	b := New()
	if FromContext(NewContext(ctx, b)) != b {
		t.Fatal("NewContext should attach b")
	}
	// A node answers with the baggage it holds, the same one every time.
	ectx := ExtractContext(ctx, nil)
	e := FromContext(ectx)
	if e == nil || e.ByteSize() != 0 {
		t.Fatalf("ExtractContext of no bytes carries %v, want empty baggage", e)
	}
	e.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	if got := FromContext(ectx).Unpack("s"); len(got) != 1 {
		t.Fatalf("a pack through the node's baggage is lost: %v", got)
	}
	l, r := SplitContexts(ectx)
	if FromContext(l) == FromContext(r) || len(FromContext(r).Unpack("s")) != 1 {
		t.Fatal("SplitContexts should give each branch its own baggage holding the past")
	}
	if l, r := SplitContexts(ctx); l != ctx || r != ctx {
		t.Fatal("splitting a context without baggage should return it")
	}
	if j, _ := JoinContext(ctx, ctx, ctx); j != ctx {
		t.Fatal("joining contexts without baggage should return ctx")
	}
	j, _ := JoinContext(ctx, l, r)
	if got := FromContext(j).Unpack("s"); len(got) != 1 {
		t.Fatalf("JoinContext unpacks %v, want the pre-split row", got)
	}
}

// TestJoinWithNothingCopiesIndependently: a join with empty baggage — the
// degenerate copy a JoinContext with one side unbaggaged makes — keeps what
// it copied, and a write through it never reaches the baggage it copied.
func TestJoinWithNothingCopiesIndependently(t *testing.T) {
	b := New()
	b.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	c := Join(b, nil)
	c.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(2)})
	if len(b.Unpack("s")) != 1 {
		t.Fatal("the copy aliases the original")
	}
	if len(c.Unpack("s")) != 2 {
		t.Fatal("the copy lost tuples")
	}
}

// TestJoinWithNothingIsNotWrittenThroughItsSource: after j := Join(b,
// nil), a pack through b copies the active instance the two share, so j
// keeps what it was joined with.
func TestJoinWithNothingIsNotWrittenThroughItsSource(t *testing.T) {
	b := New()
	b.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	j := Join(b, nil)
	b.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(2)})
	if got := j.Unpack("s"); len(got) != 1 || !got[0].Equal(tuple.Tuple{tuple.Int(1)}) {
		t.Fatalf("the join unpacks %v, want [(1)]: the source wrote into it", got)
	}
	if got := b.Unpack("s"); len(got) != 2 {
		t.Fatalf("the source unpacks %v, want both rows", got)
	}
}

func TestByteSizeGrowsLinearly(t *testing.T) {
	prev := 0
	for _, n := range []int{1, 2, 4, 8} {
		b := New()
		for i := 0; i < n; i++ {
			b.Pack("s", allSpec("a", "b"),
				tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i * 2))})
		}
		size := b.ByteSize()
		if size <= prev {
			t.Fatalf("size(%d tuples) = %d, not growing", n, size)
		}
		prev = size
	}
}

func TestQ7StyleBaggageIsSmall(t *testing.T) {
	// §6.3: Q7 packs the stress-test hostname plus 3 replica locations
	// (4 tuples) at ~137 bytes per request. Our encoding should be in the
	// same ballpark (well under 250 bytes).
	b := New()
	b.Pack("q7.st", SetSpec{Kind: First, Fields: tuple.Schema{"host"}},
		tuple.Tuple{tuple.String("stresstest-host-04.cluster.local")})
	b.Pack("q7.nn", allSpec("replicas"),
		tuple.Tuple{tuple.String("datanode-01.cluster.local")},
		tuple.Tuple{tuple.String("datanode-02.cluster.local")},
		tuple.Tuple{tuple.String("datanode-03.cluster.local")})
	if size := b.ByteSize(); size > 250 {
		t.Fatalf("Q7-style baggage = %d bytes, want <= 250", size)
	}
	if b.TupleCount() != 4 {
		t.Fatalf("TupleCount = %d, want 4", b.TupleCount())
	}
}

func TestFirstPrefersPreBranchTuple(t *testing.T) {
	// A FIRST tuple packed before a branch point must win over tuples
	// packed inside branches — this is what keeps Q2's application
	// attribution correct when MapReduce tasks re-cross ClientProtocols.
	spec := SetSpec{Kind: First, Fields: tuple.Schema{"procName"}}
	b := New()
	b.Pack("cl", spec, tuple.Tuple{tuple.String("MRSORT10G")})
	l, r := b.Split()
	l.Pack("cl", spec, tuple.Tuple{tuple.String("Map")})
	if got := l.Unpack("cl"); len(got) != 1 || got[0][0].Str() != "MRSORT10G" {
		t.Fatalf("branch unpack = %v, want pre-branch MRSORT10G", got)
	}
	j := Join(l, r)
	if got := j.Unpack("cl"); len(got) != 1 || got[0][0].Str() != "MRSORT10G" {
		t.Fatalf("joined unpack = %v, want MRSORT10G", got)
	}
}

func TestRecentPrefersBranchLocalTuple(t *testing.T) {
	spec := SetSpec{Kind: Recent, Fields: tuple.Schema{"v"}}
	b := New()
	b.Pack("s", spec, tuple.Tuple{tuple.Int(1)})
	l, _ := b.Split()
	l.Pack("s", spec, tuple.Tuple{tuple.Int(2)})
	if got := l.Unpack("s"); len(got) != 1 || got[0][0].Int() != 2 {
		t.Fatalf("RECENT unpack = %v, want branch-local (2)", got)
	}
}

func TestFirstNOldestFirstAcrossBranch(t *testing.T) {
	spec := SetSpec{Kind: FirstN, N: 3, Fields: tuple.Schema{"v"}}
	b := New()
	b.Pack("s", spec, tuple.Tuple{tuple.Int(1)})
	l, _ := b.Split()
	l.Pack("s", spec, tuple.Tuple{tuple.Int(2)}, tuple.Tuple{tuple.Int(3)}, tuple.Tuple{tuple.Int(4)})
	got := l.Unpack("s")
	if len(got) != 3 || got[0][0].Int() != 1 || got[1][0].Int() != 2 || got[2][0].Int() != 3 {
		t.Fatalf("FIRSTN unpack = %v, want [1 2 3]", got)
	}
}

// The tests below pin what sharing frozen instances must not break: no
// operation writes memory that another Baggage can reach.

// A use of the receiver after Split — pivot.Split leaves it reachable
// through the parent context — reads what it held and writes a copy:
// neither branch sees or serializes the difference, nor the receiver a
// branch's writes.
func TestUseAfterSplitNeverReachesTheBranches(t *testing.T) {
	b := New()
	b.Pack("x.all", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	b.Pack("q.agg", aggSpec(), kv("a", 1))
	l, r := b.Split()
	wantL, wantR := l.Serialize(), r.Serialize()

	b.Pack("x.all", allSpec("v"), tuple.Tuple{tuple.Int(2)})
	b.Pack("q.agg", aggSpec(), kv("a", 10))
	b.PackBudgeted("q", "q.agg", aggSpec(), Budget{MaxTuples: 1}, kv("b", 1)) // evicts, writes a tombstone
	if got := b.Unpack("x.all"); len(got) != 2 {
		t.Errorf("receiver unpacks %v after its own pack, want both rows", got)
	}
	for name, br := range map[string]*Baggage{"left": l, "right": r} {
		if got := br.Unpack("x.all"); len(got) != 1 || got[0][0].Int() != 1 {
			t.Errorf("%s branch unpacks %v after the receiver was written, want the pre-split row only", name, got)
		}
		if got := br.Unpack("q.agg"); len(got) != 1 || got[0][1].Int() != 1 {
			t.Errorf("%s branch unpacks %v after the receiver was written, want a=1", name, got)
		}
		if len(br.DropRecords("")) > 0 {
			t.Errorf("%s branch sees the receiver's eviction tombstone", name)
		}
	}
	if !bytes.Equal(l.Serialize(), wantL) || !bytes.Equal(r.Serialize(), wantR) {
		t.Error("writing the receiver after Split changed what a branch serializes")
	}

	before := b.Serialize()
	l.Pack("x.all", allSpec("v"), tuple.Tuple{tuple.Int(3)})
	if !bytes.Equal(b.Serialize(), before) || !bytes.Equal(r.Serialize(), wantR) {
		t.Error("a branch's pack changed what the receiver or its sibling serializes")
	}
}

// Join must build its instance list in a slice of its own: appending to an
// argument's list would write into a backing array that another Baggage
// (a degenerate join's copy, say) shares.
func TestJoinNeverAppendsToItsArguments(t *testing.T) {
	root := New()
	root.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	a, b := root.Split()
	a1, _ := a.Split() // a1 holds [its own, a's, root's]; b holds [its own, root's]

	// Give a1's list spare capacity with a sentinel in it.
	sentinel := &instance{}
	padded := append(make([]*instance, 0, len(a1.insts)+4), a1.insts...)
	padded = append(padded, sentinel)
	a1.insts = padded[:len(padded)-1]
	wantA, wantB := a1.Serialize(), b.Serialize()

	j := Join(a1, b)
	if padded[len(padded)-1] != sentinel {
		t.Error("Join wrote into the spare capacity of its argument's instance list")
	}
	if len(j.insts) != 3 {
		t.Errorf("joined baggage holds %d instances, want 3 (root's deduplicated)", len(j.insts))
	}
	if !bytes.Equal(a1.Serialize(), wantA) || !bytes.Equal(b.Serialize(), wantB) {
		t.Error("Join changed what an argument serializes")
	}
}

// Load keeps a copy of its own: the bytes it was given may be reused.
func TestLoadKeepsAPrivateCopy(t *testing.T) {
	src := New()
	src.Pack("s", allSpec("v"), tuple.Tuple{tuple.Int(1)})
	wire := src.Serialize()
	want := bytes.Clone(wire)
	var dst Baggage
	dst.Pack("old", allSpec("v"), tuple.Tuple{tuple.Int(9)})
	dst.Load(wire)
	clear(wire)
	if !bytes.Equal(dst.Serialize(), want) {
		t.Error("overwriting the loaded bytes changed the baggage")
	}
	if got := dst.Unpack("s"); len(got) != 1 || dst.Unpack("old") != nil {
		t.Errorf("loaded baggage unpacks %v and old %v, want the one loaded row only", got, dst.Unpack("old"))
	}
	dst.Load(nil)
	if dst.ByteSize() != 0 {
		t.Error("loading no bytes should leave the baggage empty")
	}
}

// hbBaggage is the baggage of the happened-before request at its process
// boundary: one instance holding one FIRST slot with one tuple.
func hbBaggage() *Baggage {
	bag := New()
	bag.Pack("q.g", SetSpec{Kind: First, Fields: tuple.Schema{"tenant"}}, tuple.Tuple{tuple.String("tenant-1")})
	return bag
}

// TestDecodedBaggageOwnsItsBytes: decoded slot names, field names and
// string values borrow the baggage's private copy of the wire bytes, never
// the caller's slice, so the caller may overwrite its buffer as soon as
// ExtractContext returns — before the lazy decode and after it alike.
func TestDecodedBaggageOwnsItsBytes(t *testing.T) {
	src := hbBaggage()
	src.Pack("q.s", SetSpec{Kind: All, Fields: tuple.Schema{"host", "n"}}, tuple.Tuple{tuple.String("host-7"), tuple.Int(3)})
	want := src.Serialize()
	for _, decodeFirst := range []bool{false, true} {
		wire := bytes.Clone(want)
		ctx := ExtractContext(context.Background(), wire)
		if decodeFirst {
			FromContext(ctx).TupleCount()
		}
		for i := range wire {
			wire[i] = 0xFF
		}
		l, r := SplitContexts(ctx)
		for _, c := range []context.Context{l, r} {
			b := FromContext(c)
			if got := b.Unpack("q.g"); len(got) != 1 || !got[0].Equal(tuple.Tuple{tuple.String("tenant-1")}) {
				t.Errorf("decodeFirst=%v: q.g unpacks %v after the wire was overwritten, want [(tenant-1)]", decodeFirst, got)
			}
			if got := b.Unpack("q.s"); len(got) != 1 || !got[0].Equal(tuple.Tuple{tuple.String("host-7"), tuple.Int(3)}) {
				t.Errorf("decodeFirst=%v: q.s unpacks %v after the wire was overwritten, want [(host-7, 3)]", decodeFirst, got)
			}
		}
		// The split decoded the received baggage; it re-encodes from what
		// it decoded.
		if got := FromContext(ctx).Serialize(); !bytes.Equal(got, want) {
			t.Errorf("decodeFirst=%v: received baggage re-encodes to\n%x\nafter the wire was overwritten, want\n%x", decodeFirst, got, want)
		}
	}
}

// The cluster RPC layer's thread-spawn pattern: the parent keeps one
// Baggage across the branch (contexts refer to it), assigned its half of
// the split and then the join of itself with the finished branch.
func TestSplitJoinInPlace(t *testing.T) {
	spec := SetSpec{Kind: Agg, Fields: tuple.Schema{"v"}, Aggs: []AggField{{Pos: 0, Fn: agg.Count}}}
	parent := New()
	parent.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
	for round := 0; round < 3; round++ {
		mine, theirs := parent.Split()
		*parent = *mine
		parent.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
		theirs.Pack("c", spec, tuple.Tuple{tuple.Int(0)})
		*parent = *Join(parent, theirs)
	}
	if got := parent.Unpack("c"); len(got) != 1 || got[0][0].Int() != 7 {
		t.Fatalf("count after three in-place branches = %v, want 7", got)
	}
}

// Branches run on their own goroutines while holding the same frozen
// instances: under -race, any write through a shared instance, set or
// tuple by Unpack, Pack, Serialize, a nested Split/Join or a budget
// eviction fails here.
func TestBranchesUseSharedFrozenInstancesConcurrently(t *testing.T) {
	root := New()
	root.Pack("q.first", SetSpec{Kind: First, Fields: tuple.Schema{"v"}}, tuple.Tuple{tuple.Int(1)})
	root.Pack("q.recent", SetSpec{Kind: Recent, Fields: tuple.Schema{"v"}}, tuple.Tuple{tuple.Int(1)})
	for i := 0; i < 4; i++ {
		root.PackBudgeted("q", "q.agg", aggSpec(), Budget{MaxTuples: 8}, kv(string(rune('a'+i)), 1))
	}
	const workers = 4
	branches := []*Baggage{root}
	for len(branches) < workers {
		l, r := branches[0].Split()
		branches = append(branches[1:], l, r)
	}
	var wg sync.WaitGroup
	for w, br := range branches {
		wg.Add(1)
		go func(w int, br *Baggage) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				br.Unpack("q.first")
				br.Unpack("q.agg")
				br.Pack("q.recent", SetSpec{Kind: Recent, Fields: tuple.Schema{"v"}}, tuple.Tuple{tuple.Int(int64(i))})
				br.PackBudgeted("q", "q.agg", aggSpec(), Budget{MaxTuples: 8}, kv(string(rune('a'+(w+i)%12)), 1))
				br.Serialize()
				br.DropRecords("q")
				l, r := br.Split()
				l.Pack("q.agg", aggSpec(), kv("a", 1))
				r.Unpack("q.agg")
				*br = *Join(l, r)
			}
		}(w, br)
	}
	wg.Wait()
	all := branches[0]
	for _, br := range branches[1:] {
		all = Join(all, br)
	}
	if got := all.Unpack("q.first"); len(got) != 1 || got[0][0].Int() != 1 {
		t.Fatalf("FIRST after rejoining = %v, want the pre-split row", got)
	}
}

// TestDecodeAcceptsOnlyTheCanonicalEncoding: a received slot is forwarded
// as the bytes it arrived as, so the decoder accepts only the bytes that
// encoding its contents writes; and it refuses a tuple whose width is not
// its spec's field count, which advice would index out of range.
func TestDecodeAcceptsOnlyTheCanonicalEncoding(t *testing.T) {
	good := hbBaggage().Serialize()
	if _, err := decodeInstances(good); err != nil {
		t.Fatalf("canonical baggage refused: %v", err)
	}
	narrow := New()
	narrow.Pack("q.g", SetSpec{Kind: First, Fields: tuple.Schema{"tenant"}}, tuple.Tuple{})
	flag := New()
	flag.Pack("q.b", allSpec("ok"), tuple.Tuple{tuple.Bool(true)})
	twice := New()
	twice.Pack("q.a", aggSpec(), tuple.Tuple{tuple.String("a"), tuple.Int(1)}, tuple.Tuple{tuple.String("b"), tuple.Int(1)})
	key := func(k string) []byte { return tuple.AppendTuple(nil, tuple.Tuple{tuple.String(k)}) }
	for name, data := range map[string][]byte{
		"no instances":    {0},
		"padded varint":   append([]byte{0x81, 0x00}, good[1:]...),
		"bool byte 2":     bytes.Replace(flag.Serialize(), tuple.AppendValue(nil, tuple.Bool(true)), []byte{byte(tuple.KindBool), 2}, 1),
		"narrow tuple":    narrow.Serialize(),
		"group key twice": bytes.Replace(twice.Serialize(), key("b"), key("a"), 1),
	} {
		if _, err := decodeInstances(data); err == nil {
			t.Errorf("%s: %x decodes", name, data)
		}
	}
}
