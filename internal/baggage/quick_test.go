package baggage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/agg"
	"repro/internal/randtest"
	"repro/internal/tuple"
)

// branchTree drives a random sequence of pack/split/join/serialize
// operations over a set of live baggage branches, tracking the expected
// total count packed into an AGG(COUNT) slot. The invariant: after joining
// everything back together, the count equals the number of packs — every
// tuple delivered exactly once, across any branching topology and any
// number of wire round-trips.
func branchTree(seed int64, steps int) (got, want int64) {
	rng := rand.New(rand.NewSource(seed))
	spec := SetSpec{Kind: Agg, Fields: tuple.Schema{"v"},
		Aggs: []AggField{{Pos: 0, Fn: agg.Count}}}
	live := []*Baggage{New()}
	var packs int64
	for i := 0; i < steps; i++ {
		k := rng.Intn(len(live))
		switch rng.Intn(5) {
		case 0, 1: // pack
			live[k].Pack("c", spec, tuple.Tuple{tuple.Int(int64(i))})
			packs++
		case 2: // split
			a, b := live[k].Split()
			live[k] = a
			live = append(live, b)
		case 3: // join two branches
			if len(live) > 1 {
				j := rng.Intn(len(live))
				if j != k {
					merged := Join(live[k], live[j])
					live[k] = merged
					live = append(live[:j], live[j+1:]...)
				}
			}
		case 4: // wire round-trip
			live[k] = Deserialize(live[k].Serialize())
		}
	}
	all := live[0]
	for _, b := range live[1:] {
		all = Join(all, b)
	}
	rows := all.Unpack("c")
	if len(rows) == 0 {
		return 0, packs
	}
	return rows[0][0].Int(), packs
}

func TestQuickExactlyOnceAcrossBranchTopologies(t *testing.T) {
	randtest.Check(t, 300, 100, func(seed int64) error {
		got, want := branchTree(seed, 40)
		if got != want {
			return fmt.Errorf("count = %d after rejoining all branches, want %d packs", got, want)
		}
		return nil
	})
}

// allKinds is one SetSpec per set kind, for round-trip and merge checks.
var allKinds = []SetSpec{
	{Kind: All, Fields: tuple.Schema{"a", "b"}},
	{Kind: First, Fields: tuple.Schema{"a", "b"}},
	{Kind: FirstN, N: 3, Fields: tuple.Schema{"a", "b"}},
	{Kind: Recent, Fields: tuple.Schema{"a", "b"}},
	{Kind: RecentN, N: 2, Fields: tuple.Schema{"a", "b"}},
	{Kind: Frontier, Fields: tuple.Schema{"a", "b"}},
	{Kind: Agg, Fields: tuple.Schema{"a", "b"},
		GroupBy: []int{0}, Aggs: []AggField{{Pos: 1, Fn: agg.Sum}}},
}

// TestQuickSerializeRoundtripPreservesEverything: serialize/deserialize is
// lossless for random baggage contents across all set kinds.
func TestQuickSerializeRoundtripPreservesEverything(t *testing.T) {
	randtest.Check(t, 200, 200, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		for s, spec := range allKinds {
			slot := spec.Kind.String() + string(rune('0'+s))
			for i := 0; i < 1+rng.Intn(5); i++ {
				b.Pack(slot, spec, tuple.Tuple{
					tuple.String(string(rune('x' + rng.Intn(3)))),
					tuple.Int(int64(rng.Intn(100))),
				})
			}
		}
		d := Deserialize(b.Serialize())
		for s, spec := range allKinds {
			slot := spec.Kind.String() + string(rune('0'+s))
			want := b.Unpack(slot)
			got := d.Unpack(slot)
			if len(want) != len(got) {
				return fmt.Errorf("slot %s: %d rows after round-trip, want %d", slot, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					return fmt.Errorf("slot %s row %d: %v after round-trip, want %v", slot, i, got[i], want[i])
				}
			}
		}
		if d.ByteSize() != b.ByteSize() {
			return fmt.Errorf("ByteSize %d after round-trip, want %d", d.ByteSize(), b.ByteSize())
		}
		return nil
	})
}

// TestQuickSplitNeverLeaksAcrossSiblings: tuples packed in one branch are
// never visible in a concurrent sibling, for random nested splits.
func TestQuickSplitNeverLeaksAcrossSiblings(t *testing.T) {
	spec := SetSpec{Kind: All, Fields: tuple.Schema{"v"}}
	randtest.Check(t, 200, 300, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		root := New()
		a, b := root.Split()
		// Randomly nest splits under a; pack only in the a-subtree.
		branches := []*Baggage{a}
		for i := 0; i < rng.Intn(4); i++ {
			k := rng.Intn(len(branches))
			l, r := branches[k].Split()
			branches[k] = l
			branches = append(branches, r)
		}
		for _, br := range branches {
			br.Pack("s", spec, tuple.Tuple{tuple.Int(1)})
		}
		if rows := b.Unpack("s"); rows != nil {
			return fmt.Errorf("sibling branch sees %d leaked rows", len(rows))
		}
		return nil
	})
}

// TestQuickMergeCommutesWithWireRoundtrip: joining two branches gives the
// same result whether or not each branch first crossed the wire — i.e. the
// Set merge/union semantics of every kind (append, left-wins, capacity
// clamps, frontier dedup, AGG group merge) survive the varint codec.
func TestQuickMergeCommutesWithWireRoundtrip(t *testing.T) {
	randtest.Check(t, 200, 400, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		left, right := New().Split()
		for s, spec := range allKinds {
			slot := spec.Kind.String() + string(rune('0'+s))
			for _, br := range []*Baggage{left, right} {
				for i := 0; i < rng.Intn(5); i++ {
					br.Pack(slot, spec, tuple.Tuple{
						tuple.String(string(rune('x' + rng.Intn(3)))),
						tuple.Int(int64(rng.Intn(100))),
					})
				}
			}
		}
		direct := Join(left, right)
		wired := Join(Deserialize(left.Serialize()), Deserialize(right.Serialize()))
		for s, spec := range allKinds {
			slot := spec.Kind.String() + string(rune('0'+s))
			want := direct.Unpack(slot)
			got := wired.Unpack(slot)
			if len(want) != len(got) {
				return fmt.Errorf("slot %s: wired join has %d rows, direct has %d", slot, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					return fmt.Errorf("slot %s row %d: wired %v, direct %v", slot, i, got[i], want[i])
				}
			}
			// Kind-specific merge invariants.
			switch spec.Kind {
			case First, Recent:
				if len(got) > 1 {
					return fmt.Errorf("slot %s: %d rows, capacity is 1", slot, len(got))
				}
			case FirstN, RecentN:
				if len(got) > spec.N {
					return fmt.Errorf("slot %s: %d rows, capacity is %d", slot, len(got), spec.N)
				}
			case Frontier:
				for i := range got {
					for j := i + 1; j < len(got); j++ {
						if got[i].Equal(got[j]) {
							return fmt.Errorf("slot %s: duplicate frontier rows %d and %d", slot, i, j)
						}
					}
				}
			}
		}
		return nil
	})
}

// deepCopy is the oracle for TestQuickSharingMatchesDeepCopies: the
// baggage rebuilt so that it shares no instance, set, tuple or
// aggregation state or encoded bytes with b or with anything else — how
// Split copied before frozen instances were shared.
func deepCopy(b *Baggage) *Baggage {
	if b.raw != nil {
		return &Baggage{raw: append([]byte(nil), b.raw...)}
	}
	deep := func(in *instance) *instance {
		c := &instance{nonce: in.nonce}
		for _, sl := range in.slots {
			if sl.set == nil {
				c.slots = append(c.slots, slot{name: sl.name, spec: bytes.Clone(sl.spec), n: sl.n, body: bytes.Clone(sl.body)})
				continue
			}
			s := NewSet(sl.set.Spec)
			s.bytes = sl.set.bytes
			for _, t := range sl.set.tuples {
				s.tuples = append(s.tuples, t.Clone())
			}
			for _, key := range sl.set.order {
				g := sl.set.groups[key]
				ng := &group{keyVals: g.keyVals.Clone(), cost: g.cost}
				for _, st := range g.states {
					ng.states = append(ng.states, st.Clone())
				}
				s.groups[key] = ng
				s.order = append(s.order, key)
			}
			c.slots = append(c.slots, slot{name: sl.name, set: s})
		}
		return c
	}
	c := &Baggage{}
	for _, in := range b.insts {
		c.insts = append(c.insts, deep(in))
	}
	return c
}

// sameView reports how two baggages differ in what they serialize or
// unpack, or nil.
func sameView(got, want *Baggage) error {
	if g, w := got.Serialize(), want.Serialize(); !bytes.Equal(g, w) {
		return fmt.Errorf("serializes to\n%x, the deep-copied shadow to\n%x", g, w)
	}
	want.ensureDecoded()
	for _, in := range want.insts {
		for _, sl := range in.slots {
			g, w := got.Unpack(sl.name), want.Unpack(sl.name)
			if len(g) != len(w) {
				return fmt.Errorf("slot %s unpacks %v, the deep-copied shadow %v", sl.name, g, w)
			}
			for i := range w {
				if !g[i].Equal(w[i]) {
					return fmt.Errorf("slot %s row %d unpacks %v, the deep-copied shadow %v", sl.name, i, g[i], w[i])
				}
			}
		}
	}
	return nil
}

// TestQuickSharingMatchesDeepCopies drives random pack / budgeted pack
// with eviction / split / join / wire round-trip sequences over a
// set of branches twice: on baggage that shares its frozen instances, sets
// and tuples, and on a shadow in which every baggage is deep-copied after
// every step, so that nothing in it is shared. After every step each live
// baggage must serialize and unpack exactly as its shadow does — which,
// the shadow's baggages being unable to affect one another, also shows
// that writing one branch never changes a sibling. Split, join and the
// wire round-trip also run in their context forms (the live baggage held
// by value in a context node), and a join with nothing is the degenerate
// copy. Receivers of Split and originals of a join with nothing stay in
// play as stale handles that are written and read but never joined.
func TestQuickSharingMatchesDeepCopies(t *testing.T) {
	kinds := append([]SetSpec{{Kind: Union, Fields: tuple.Schema{"a", "b"}}}, allKinds...)
	bg := context.Background()
	randtest.Check(t, 300, 500, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		// live[i] and shadow[i] are the same baggage in the two worlds;
		// the first `branches` of them may be joined.
		live, shadow := []*Baggage{New()}, []*Baggage{New()}
		branches := 1
		for step := 0; step < 60; step++ {
			k := rng.Intn(len(live))
			op := rng.Intn(12)
			switch op {
			case 0, 1, 2: // pack, sometimes under a budget small enough to evict
				spec := kinds[rng.Intn(len(kinds))]
				row := tuple.Tuple{tuple.String(string(rune('x' + rng.Intn(4)))), tuple.Int(int64(rng.Intn(100)))}
				for _, b := range []*Baggage{live[k], shadow[k]} {
					if op == 0 {
						b.PackBudgeted("q", "q."+spec.Kind.String(), spec, Budget{MaxTuples: 6}, row)
					} else {
						b.Pack("q."+spec.Kind.String(), spec, row)
					}
				}
			case 3, 8: // split: the receiver becomes a stale handle
				if k >= branches {
					continue
				}
				l, r := live[k].Split()
				if op == 8 {
					lc, rc := SplitContexts(NewContext(bg, live[k]))
					l, r = FromContext(lc), FromContext(rc)
				}
				sl, sr := shadow[k].Split()
				live, shadow = append(live, live[k]), append(shadow, shadow[k])
				live[k], shadow[k] = l, sl
				live, shadow = append(live, nil), append(shadow, nil)
				copy(live[branches+1:], live[branches:])
				copy(shadow[branches+1:], shadow[branches:])
				live[branches], shadow[branches] = r, sr
				branches++
			case 4, 9: // join two branches
				j := rng.Intn(branches)
				if k >= branches || j == k {
					continue
				}
				if op == 9 {
					jc, _ := JoinContext(bg, NewContext(bg, live[k]), NewContext(bg, live[j]))
					live[k] = FromContext(jc)
				} else {
					live[k] = Join(live[k], live[j])
				}
				shadow[k] = Join(shadow[k], shadow[j])
				live, shadow = append(live[:j], live[j+1:]...), append(shadow[:j], shadow[j+1:]...)
				branches--
			case 5, 10: // wire round-trip
				if op == 10 {
					live[k] = FromContext(ExtractContext(bg, live[k].Serialize()))
				} else {
					live[k] = Deserialize(live[k].Serialize())
				}
				shadow[k] = Deserialize(shadow[k].Serialize())
			case 11: // join with nothing: the result shares the active instance
				jc, _ := JoinContext(bg, NewContext(bg, live[k]), bg)
				live[k] = FromContext(jc)
				shadow[k] = Join(shadow[k], nil)
			case 6: // join with nothing: the original becomes a stale handle
				live, shadow = append(live, live[k]), append(shadow, shadow[k])
				live[k], shadow[k] = Join(live[k], nil), Join(shadow[k], nil)
			case 7: // read only
			}
			for i := range shadow {
				// New instances draw random nonces; give the shadow's the
				// live one's, position by position.
				shadow[i] = deepCopy(shadow[i])
				if live[i].raw == nil && shadow[i].raw == nil && len(live[i].insts) == len(shadow[i].insts) {
					for p, in := range live[i].insts {
						shadow[i].insts[p].nonce = in.nonce
					}
				}
			}
			for i := range live {
				if err := sameView(live[i], shadow[i]); err != nil {
					return fmt.Errorf("step %d (op %d on %d): baggage %d of %d (%d joinable) %v",
						step, op, k, i, len(live), branches, err)
				}
			}
		}
		return nil
	})
}

// TestQuickAppendUnpackExtendsPrefix: AppendUnpack(prefix, vals, slot) is
// prefix followed by Unpack(slot), and leaves prefix and the values in
// vals as they were, for every set
// kind: on a slot one instance holds, on slots that a frozen instance and
// a branch's or a join's active instance both contribute to, across wire
// round-trips, and on an AGG slot whose groups eviction tombstones
// suppress (its budget is small enough that a branch evicts a group that
// a frozen instance also holds).
func TestQuickAppendUnpackExtendsPrefix(t *testing.T) {
	kinds := append([]SetSpec{{Kind: Union, Fields: tuple.Schema{"a", "b"}}}, allKinds...)
	var merged, suppressed int
	randtest.Check(t, 200, 600, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		row := func() tuple.Tuple {
			return tuple.Tuple{tuple.String(string(rune('x' + rng.Intn(3)))), tuple.Int(int64(rng.Intn(100)))}
		}
		pack := func(b *Baggage) {
			for _, spec := range kinds {
				for i := rng.Intn(4); i > 0; i-- {
					b.PackBudgeted(spec.Kind.String(), spec.Kind.String()+".s", spec, Budget{MaxTuples: 2}, row())
				}
			}
		}
		wire := func(b *Baggage) *Baggage {
			if rng.Intn(2) == 0 {
				return Deserialize(b.Serialize())
			}
			return b
		}
		root := New()
		pack(root)
		l, r := root.Split()
		pack(l)
		pack(r)
		l, r = wire(l), wire(r)
		joined := Join(l, r)
		pack(joined)
		for _, b := range []*Baggage{wire(root), l, r, wire(joined)} {
			if _, keys := b.evictions("AGG.s"); len(keys) > 0 {
				suppressed++
			}
			for _, spec := range kinds {
				slot := spec.Kind.String() + ".s"
				contributions := 0
				for _, in := range b.insts {
					if in.lookup(slot) != nil {
						contributions++
					}
				}
				if contributions > 1 {
					merged++
				}
				prefix := make([]tuple.Tuple, 1+rng.Intn(3), 4+rng.Intn(3))
				for i := range prefix {
					prefix[i] = row()
				}
				saved := slices.Clone(prefix)
				vals := slices.Grow(slices.Concat(prefix...), rng.Intn(8))
				savedVals := slices.Clone(vals)
				want := append(slices.Clone(prefix), b.Unpack(slot)...)
				got, _, _ := b.AppendUnpack(prefix, vals, slot)
				if !vals.Equal(savedVals) {
					return fmt.Errorf("slot %s: AppendUnpack wrote the values it was given", slot)
				}
				if len(got) != len(want) {
					return fmt.Errorf("slot %s: AppendUnpack gives %v, want %v", slot, got, want)
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						return fmt.Errorf("slot %s row %d: AppendUnpack gives %v, want %v", slot, i, got[i], want[i])
					}
				}
				for i := range saved {
					if !prefix[i].Equal(saved[i]) {
						return fmt.Errorf("slot %s: AppendUnpack wrote prefix row %d", slot, i)
					}
				}
			}
		}
		return nil
	})
	if merged == 0 || suppressed == 0 {
		t.Errorf("%d merged reads, %d reads with suppressed AGG groups: the generator misses a case", merged, suppressed)
	}
}

// TestQuickPackFromMatchesPackBudgeted: advice's pack, which encodes the
// projection of its working tuple into the slot, leaves baggage that
// unpacks, accounts and serializes (nonces aside) exactly as packing the
// projected copy does — for every kind, under budgets small enough to
// evict, into slots that splits, joins, copies and wire round-trips left
// encoded or materialized.
func TestQuickPackFromMatchesPackBudgeted(t *testing.T) {
	kinds := append([]SetSpec{{Kind: Union, Fields: tuple.Schema{"a", "b"}}}, allKinds...)
	src := []int{2, 1}
	randtest.Check(t, 300, 400, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		from, copied := New(), New()
		kind := func() SetSpec { return kinds[rng.Intn(len(kinds))] }
		pack := func(spec SetSpec) error {
			w := tuple.Tuple{tuple.Int(7), tuple.Int(int64(rng.Intn(4))), tuple.String(string(rune('x' + rng.Intn(3))))}
			budget := Budget{MaxTuples: 1 + rng.Intn(8)}
			slot := "q." + spec.Kind.String()
			got := from.PackFrom("q", slot, spec, budget, w, src)
			want := copied.PackBudgeted("q", slot, spec, budget, w.Project(src))
			if got != want {
				return fmt.Errorf("PackFrom into %s: %+v, PackBudgeted %+v", slot, got, want)
			}
			return nil
		}
		for step := 0; step < 40; step++ {
			switch rng.Intn(7) {
			case 0, 1, 2:
				if err := pack(kind()); err != nil {
					return err
				}
			case 3: // wire round-trip: the slots come back encoded
				from, copied = Deserialize(from.Serialize()), Deserialize(copied.Serialize())
			case 4, 5: // split, pack a branch, join
				fl, fr := from.Split()
				cl, cr := copied.Split()
				if rng.Intn(2) == 0 {
					fl, fr, cl, cr = fr, fl, cr, cl
				}
				from, copied = fl, cl
				if err := pack(kind()); err != nil {
					return err
				}
				from, copied = Join(from, fr), Join(copied, cr)
			case 6: // copy by a join with nothing, then write the copy and the original, in that order: neither write reaches the other
				spec := kinds[rng.Intn(2)] // UNION or ALL: slots with room to append in place
				for i := 0; i < 4; i++ {
					if err := pack(spec); err != nil {
						return err
					}
				}
				fo, co := from, copied
				fc, cc := Join(from, nil), Join(copied, nil)
				from, copied = fc, cc
				if err := pack(spec); err != nil {
					return err
				}
				from, copied = fo, co
				if err := pack(spec); err != nil {
					return err
				}
				from, copied = fc, cc
			}
			for _, spec := range kinds {
				slot := "q." + spec.Kind.String()
				if g, w := from.Unpack(slot), copied.Unpack(slot); fmt.Sprint(g) != fmt.Sprint(w) {
					return fmt.Errorf("step %d: %s unpacks %v, want %v", step, slot, g, w)
				}
			}
			if g, w := fmt.Sprint(from.TupleCount(), from.DropRecords("")), fmt.Sprint(copied.TupleCount(), copied.DropRecords("")); g != w {
				return fmt.Errorf("step %d: counts and drops %s, want %s", step, g, w)
			}
			if g, w := nonceFree(from), nonceFree(copied); !bytes.Equal(g, w) {
				return fmt.Errorf("step %d: serializes to\n%x, want\n%x", step, g, w)
			}
		}
		return nil
	})
}

// nonceFree returns b's encoding with every instance's nonce zeroed.
func nonceFree(b *Baggage) []byte {
	c := Deserialize(b.Serialize())
	c.ensureDecoded()
	for _, in := range c.insts {
		in.nonce = 0
	}
	return c.Serialize()
}
