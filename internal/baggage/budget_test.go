package baggage

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/tuple"
)

func aggSpec() SetSpec {
	return SetSpec{
		Kind:    Agg,
		Fields:  tuple.Schema{"key", "sum"},
		GroupBy: []int{0},
		Aggs:    []AggField{{Pos: 1, Fn: agg.Sum}},
	}
}

func kv(key string, val int64) tuple.Tuple {
	return tuple.Tuple{tuple.String(key), tuple.Int(val)}
}

// unlimited disables both caps so a test can isolate one behavior.
var unlimited = Budget{MaxBytes: -1, MaxTuples: -1}

func TestBudgetDefaultsAndResolution(t *testing.T) {
	var b Budget
	if b.maxBytes() != DefaultMaxBytes || b.maxTuples() != DefaultMaxTuples {
		t.Fatalf("zero budget = (%d, %d), want defaults", b.maxBytes(), b.maxTuples())
	}
	b = Budget{MaxBytes: -1, MaxTuples: -1}
	if b.maxBytes() != -1 || b.maxTuples() != -1 {
		t.Fatalf("negative budget must disable caps")
	}
	b = Budget{MaxBytes: 10, MaxTuples: 3}
	if b.maxBytes() != 10 || b.maxTuples() != 3 {
		t.Fatalf("explicit budget not honored")
	}
	// Any negative value disables a cap, not just -1.
	bag := New()
	var st PackStats
	for i := 0; i < 8; i++ {
		st.Add(bag.PackBudgeted("q1", "q1.a", aggSpec(), Budget{MaxBytes: -7, MaxTuples: -7}, kv(fmt.Sprintf("k%d", i), 1)))
	}
	if st.Packed != 8 || st.EvictedGroups != 0 || len(bag.DropRecords("")) > 0 {
		t.Fatalf("budget -7 evicted: stats %+v", st)
	}
}

func TestPackBudgetedNoEvictionUnderBudget(t *testing.T) {
	b := New()
	var st PackStats
	for i := 0; i < 8; i++ {
		st.Add(b.PackBudgeted("q1", "q1.a", aggSpec(), Budget{}, kv(fmt.Sprintf("k%d", i), 1)))
	}
	if st.Packed != 8 || st.RefusedTuples != 0 || st.EvictedGroups != 0 {
		t.Fatalf("under-budget stats = %+v", st)
	}
	if len(b.DropRecords("")) > 0 {
		t.Fatalf("no drops expected under budget")
	}
	if got := b.Unpack("q1.a"); len(got) != 8 {
		t.Fatalf("Unpack = %d rows, want 8", len(got))
	}
}

func TestTupleCapEvictsOldestGroupsAndAccounts(t *testing.T) {
	b := New()
	budget := Budget{MaxBytes: -1, MaxTuples: 4}
	const total = 10
	var st PackStats
	for i := 0; i < total; i++ {
		st.Add(b.PackBudgeted("q1", "q1.a", aggSpec(), budget, kv(fmt.Sprintf("k%d", i), int64(i))))
	}
	got := b.Unpack("q1.a")
	drops := b.DropRecords("q1")
	if len(got)+len(drops) != total {
		t.Fatalf("reported %d + dropped %d != total %d", len(got), len(drops), total)
	}
	if len(got) != 4 {
		t.Fatalf("reported %d groups, want cap 4", len(got))
	}
	// Oldest groups evicted first: survivors are the newest keys.
	for _, row := range got {
		var k string
		if k = row[0].Str(); k < "k6" {
			t.Fatalf("old group %s survived; rows %v", k, got)
		}
	}
	if st.EvictedGroups != int64(len(drops)) {
		t.Fatalf("PackStats.EvictedGroups=%d, tombstones=%d", st.EvictedGroups, len(drops))
	}
	if st.Packed != total {
		t.Fatalf("Packed=%d, want %d (evicted groups were packed before eviction)", st.Packed, total)
	}
}

func TestTombstonedGroupRefusesRepack(t *testing.T) {
	b := New()
	budget := Budget{MaxBytes: -1, MaxTuples: 1}
	b.PackBudgeted("q1", "q1.a", aggSpec(), budget, kv("old", 1))
	b.PackBudgeted("q1", "q1.a", aggSpec(), budget, kv("new", 1)) // evicts "old"
	st := b.PackBudgeted("q1", "q1.a", aggSpec(), budget, kv("old", 99))
	if st.Packed != 0 || st.RefusedTuples != 1 {
		t.Fatalf("re-pack of evicted group: stats=%+v, want refusal", st)
	}
	got := b.Unpack("q1.a")
	if len(got) != 1 || got[0][0].Str() != "new" {
		t.Fatalf("Unpack = %v, want only 'new'", got)
	}
	if drops := b.DropRecords("q1"); len(drops) != 1 || drops[0].Slot != "q1.a" {
		t.Fatalf("DropRecords = %v", drops)
	}
}

func TestByteCapWholeSlotEvictionNonAgg(t *testing.T) {
	b := New()
	spec := allSpec("v")
	budget := Budget{MaxBytes: 32, MaxTuples: -1}
	var st PackStats
	for i := 0; i < 16; i++ {
		st.Add(b.PackBudgeted("q1", "q1.a", spec, budget, tuple.Tuple{tuple.String("0123456789")}))
	}
	// The slot exceeds 32 bytes quickly; a non-AGG victim is cleared whole.
	if st.EvictedGroups == 0 || st.EvictedTuples == 0 || st.EvictedBytes == 0 {
		t.Fatalf("expected whole-slot eviction, stats=%+v", st)
	}
	if got := b.Unpack("q1.a"); got != nil {
		t.Fatalf("tombstoned slot must unpack empty, got %v", got)
	}
	// Whole-slot tombstone refuses all future packs.
	st = b.PackBudgeted("q1", "q1.a", spec, budget, tuple.Tuple{tuple.String("x")})
	if st.Packed != 0 || st.RefusedTuples != 1 {
		t.Fatalf("pack into tombstoned slot: stats=%+v", st)
	}
	drops := b.DropRecords("")
	if len(drops) != 1 || drops[0].Key != "" {
		t.Fatalf("DropRecords = %v, want one whole-slot tombstone", drops)
	}
}

func TestBudgetScopedPerQuery(t *testing.T) {
	b := New()
	tight := Budget{MaxBytes: -1, MaxTuples: 1}
	b.PackBudgeted("q2", "q2.a", aggSpec(), unlimited, kv("other", 1))
	b.PackBudgeted("q1", "q1.a", aggSpec(), tight, kv("k1", 1))
	b.PackBudgeted("q1", "q1.a", aggSpec(), tight, kv("k2", 1)) // evicts k1 from q1 only
	if got := b.Unpack("q2.a"); len(got) != 1 {
		t.Fatalf("q2 must be untouched by q1's budget, got %v", got)
	}
	if drops := b.DropRecords("q2"); drops != nil {
		t.Fatalf("q2 has no drops, got %v", drops)
	}
	if drops := b.DropRecords("q1"); len(drops) != 1 {
		t.Fatalf("q1 drops = %v, want 1", drops)
	}
}

func TestEvictionSurvivesSplitJoin(t *testing.T) {
	// A group packed before the split lives on in frozen copies on both
	// branches. Evicting it inside one branch writes a tombstone that must
	// suppress the frozen copy after the join — otherwise the group is
	// both reported and counted dropped.
	b := New()
	b.PackBudgeted("q1", "q1.a", aggSpec(), unlimited, kv("pre", 1))
	left, right := b.Split()
	tight := Budget{MaxBytes: -1, MaxTuples: 1}
	// Left branch: packing two more groups under a 1-group cap evicts
	// until only one group remains in the active instance; "pre" (frozen)
	// still counts toward usage, so tombstones accumulate.
	left.PackBudgeted("q1", "q1.a", aggSpec(), tight, kv("l1", 1))
	left.PackBudgeted("q1", "q1.a", aggSpec(), tight, kv("l2", 1))
	right.PackBudgeted("q1", "q1.a", aggSpec(), unlimited, kv("r1", 1))
	joined := Join(left, right)
	got := joined.Unpack("q1.a")
	drops := joined.DropRecords("q1")
	seen := map[string]bool{}
	for _, row := range got {
		seen[row[0].Str()] = true
	}
	dropped := map[string]bool{}
	for _, d := range drops {
		dropped[d.Key] = true
	}
	// Every key is exclusively reported or tombstoned.
	for _, row := range got {
		key := string(tuple.Tuple{row[0]}.AppendKey(nil, []int{0}))
		if dropped[key] {
			t.Fatalf("group %q both reported and dropped", row[0].Str())
		}
	}
	// All four distinct keys are accounted for.
	if len(got)+len(drops) != 4 {
		t.Fatalf("reported %d + dropped %d != 4 distinct keys (rows %v, drops %v)",
			len(got), len(drops), got, drops)
	}
}

func TestBudgetDecisionsSurviveSerialization(t *testing.T) {
	mk := func() *Baggage {
		b := New()
		for i := 0; i < 6; i++ {
			b.PackBudgeted("q1", "q1.a", aggSpec(), unlimited, kv(fmt.Sprintf("k%d", i), int64(i)))
		}
		return b
	}
	direct := mk()
	wire := Deserialize(mk().Serialize())
	budget := Budget{MaxBytes: -1, MaxTuples: 3}
	s1 := direct.PackBudgeted("q1", "q1.a", aggSpec(), budget, kv("k9", 9))
	s2 := wire.PackBudgeted("q1", "q1.a", aggSpec(), budget, kv("k9", 9))
	if s1 != s2 {
		t.Fatalf("budget decisions diverge across serialization: %+v vs %+v", s1, s2)
	}
	r1, r2 := direct.Unpack("q1.a"), wire.Unpack("q1.a")
	if len(r1) != len(r2) {
		t.Fatalf("row counts diverge: %d vs %d", len(r1), len(r2))
	}
	d1, d2 := direct.DropRecords("q1"), wire.DropRecords("q1")
	if len(d1) != len(d2) {
		t.Fatalf("drop records diverge: %v vs %v", d1, d2)
	}
}

func TestDropSlotExcludedFromUsageAndEviction(t *testing.T) {
	b := New()
	tight := Budget{MaxBytes: 1, MaxTuples: -1}
	// Everything real is evicted, filling the drop slot; the drop slot
	// itself must never be chosen as a victim (that would loop forever)
	// and must not count toward usage.
	for i := 0; i < 8; i++ {
		b.PackBudgeted("q1", "q1.a", aggSpec(), tight, kv(fmt.Sprintf("k%d", i), 1))
	}
	if len(b.DropRecords("")) == 0 {
		t.Fatalf("expected drops")
	}
	bytes, tuples := b.usage("q1")
	if bytes > 1 || tuples > 1 {
		t.Fatalf("usage (%d bytes, %d tuples) should exclude the drop slot", bytes, tuples)
	}
}

func TestTraceSlotNeverEvictedNorDoubleCounted(t *testing.T) {
	// The reserved span-frontier slot rides in the same baggage as query
	// data. A query exhausting its budget must evict its own groups, never
	// the trace slot, and the query's reported+dropped reconciliation must
	// be unaffected by the trace slot's presence.
	b := New()
	frontier := func(bag *Baggage, trace, span int64) {
		bag.PackBudgeted("", TraceSlot, TraceSpec, Budget{}, tuple.Tuple{tuple.Int(trace), tuple.Int(span), tuple.Int(span * 10)})
	}
	frontier(b, 7, 1)
	tight := Budget{MaxBytes: -1, MaxTuples: 3}
	const total = 9
	for i := 0; i < total; i++ {
		b.PackBudgeted("q1", "q1.a", aggSpec(), tight, kv(fmt.Sprintf("k%d", i), int64(i)))
		frontier(b, 7, int64(i+2)) // interleave span packs with query packs
	}
	// The trace slot survives with exactly one (FRONTIER) pair.
	tr := b.Unpack(TraceSlot)
	if len(tr) != 1 || tr[0][0].Int() != 7 || tr[0][1].Int() != int64(total+1) {
		t.Fatalf("trace slot = %v, want single frontier pair (7, %d)", tr, total+1)
	}
	// reported + dropped reconciles exactly; no tombstone names the trace slot.
	got := b.Unpack("q1.a")
	drops := b.DropRecords("q1")
	if len(got)+len(drops) != total {
		t.Fatalf("reported %d + dropped %d != total %d", len(got), len(drops), total)
	}
	for _, d := range b.DropRecords("") {
		if d.Slot == TraceSlot {
			t.Fatalf("trace slot appears in drop accounting: %v", d)
		}
	}
	// The trace slot contributes nothing to any query's usage.
	if bytes, tuples := b.usage("q1"); tuples > 3 {
		t.Fatalf("usage (%d bytes, %d tuples) should exclude the trace slot", bytes, tuples)
	}
	// Even a pack scoped to the trace slot's own prefix finds no victim
	// there: enforce must return without evicting or looping.
	st := b.PackBudgeted("", TraceSlot, TraceSpec, Budget{MaxBytes: 1, MaxTuples: 1}, tuple.Tuple{tuple.Int(7), tuple.Int(99), tuple.Int(990)})
	if st.EvictedGroups != 0 || st.RefusedTuples != 0 || st.Packed != 1 {
		t.Fatalf("trace-slot pack under a tiny budget must not evict: %+v", st)
	}
}

func TestUnionSetSemantics(t *testing.T) {
	b := New()
	spec := SetSpec{Kind: Union, Fields: tuple.Schema{"v"}}
	b.Pack("u", spec, tuple.Tuple{tuple.Int(1)}, tuple.Tuple{tuple.Int(2)}, tuple.Tuple{tuple.Int(1)})
	if got := b.Unpack("u"); len(got) != 2 {
		t.Fatalf("UNION dedup failed: %v", got)
	}
	// Unlike Frontier, a later pack never replaces earlier tuples...
	b.Pack("u", spec, tuple.Tuple{tuple.Int(3)})
	if got := b.Unpack("u"); len(got) != 3 {
		t.Fatalf("UNION must accumulate: %v", got)
	}
	// ...and joins union both sides.
	l, r := b.Split()
	l.Pack("u", spec, tuple.Tuple{tuple.Int(4)})
	r.Pack("u", spec, tuple.Tuple{tuple.Int(4)}, tuple.Tuple{tuple.Int(5)})
	j := Join(l, r)
	if got := j.Unpack("u"); len(got) != 5 {
		t.Fatalf("UNION join = %v, want 5 distinct", got)
	}
}

func TestCostBytesMaintainedIncrementally(t *testing.T) {
	for _, kind := range []SetKind{All, First, FirstN, Recent, RecentN, Frontier, Union, Agg} {
		spec := SetSpec{Kind: kind, N: 2, Fields: tuple.Schema{"k", "v"}}
		if kind == Agg {
			spec.GroupBy = []int{0}
			spec.Aggs = []AggField{{Pos: 1, Fn: agg.Sum}}
		}
		s := NewSet(spec)
		for i := 0; i < 5; i++ {
			s.Pack(kv(fmt.Sprintf("k%d", i%3), int64(i)))
		}
		got := s.CostBytes()
		s.recomputeBytes()
		if got != s.CostBytes() {
			t.Errorf("%v: incremental cost %d != recomputed %d", kind, got, s.CostBytes())
		}
		c := s.Clone()
		if c.CostBytes() != s.CostBytes() {
			t.Errorf("%v: Clone cost %d != %d", kind, c.CostBytes(), s.CostBytes())
		}
		o := NewSet(spec)
		for i := 3; i < 8; i++ {
			o.Pack(kv(fmt.Sprintf("k%d", i%4), int64(i)))
		}
		c.Merge(o)
		got = c.CostBytes()
		c.recomputeBytes()
		if got != c.CostBytes() {
			t.Errorf("%v: merged incremental cost %d != recomputed %d", kind, got, c.CostBytes())
		}
	}
}
