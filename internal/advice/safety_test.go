package advice

import (
	"context"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/tuple"
)

// safetyEmitter is a Host that records emissions plus the governance
// callbacks.
type safetyEmitter struct {
	collectEmitter
	quarantined []string
	drops       []baggage.DropRecord
	packStats   baggage.PackStats
}

func (s *safetyEmitter) EmitTupleWeighted(p *Program, w tuple.Tuple, _ float64) {
	s.EmitTuple(p, w)
}

func (s *safetyEmitter) NoteSampledOut(p *Program) {}

func (s *safetyEmitter) NoteQuarantine(p *Program, reason string) {
	s.quarantined = append(s.quarantined, reason)
}

func (s *safetyEmitter) NoteBaggageDrops(p *Program, recs []baggage.DropRecord) {
	s.drops = append(s.drops, recs...)
}

func (s *safetyEmitter) NotePackStats(p *Program, st baggage.PackStats) {
	s.packStats.Add(st)
}

func rawOp() *EmitOp {
	return &EmitOp{
		Cols:   []EmitCol{{Pos: 0}, {Pos: 1}},
		Raw:    true,
		Schema: tuple.Schema{"k", "v"},
	}
}

func aggOp() *EmitOp {
	return &EmitOp{
		Cols:    []EmitCol{{Pos: 0}, {IsAgg: true, Pos: 1, Fn: agg.Sum}},
		GroupBy: []int{0},
		Schema:  tuple.Schema{"k", "SUM(v)"},
	}
}

func kvRow(k string, v int64) tuple.Tuple {
	return tuple.Tuple{tuple.String(k), tuple.Int(v)}
}

// The satellite regression: before limits, a raw query that outlived its
// drain grew acc.raws without bound. The cap FIFO-evicts and counts.
func TestAccumulatorRawsCapFIFOEvicts(t *testing.T) {
	acc := NewAccumulator(rawOp())
	acc.SetLimits(Limits{MaxRaws: 3})
	for i := int64(0); i < 5; i++ {
		acc.Add(kvRow("k", i))
	}
	raws := acc.Raws()
	if len(raws) != 3 {
		t.Fatalf("raws = %d, want 3", len(raws))
	}
	// FIFO: the oldest rows (0, 1) are gone, newest (2, 3, 4) survive.
	for i, want := range []int64{2, 3, 4} {
		if raws[i][1].Int() != want {
			t.Fatalf("raws[%d] = %v, want v=%d", i, raws[i], want)
		}
	}
	if rawsDropped(acc) != 2 {
		t.Fatalf("RawsDropped = %d, want 2", rawsDropped(acc))
	}
	// Accounting is cumulative across Reset (the per-interval drain).
	acc.Reset()
	acc.Add(kvRow("k", 9))
	if rawsDropped(acc) != 2 || len(acc.Raws()) != 1 {
		t.Fatalf("after Reset: dropped=%d raws=%d", rawsDropped(acc), len(acc.Raws()))
	}
}

func TestMergeRawsCapped(t *testing.T) {
	m := NewMerger(rawOp(), Limits{MaxRaws: 2})
	mustMerge(t, m, nil, []tuple.Tuple{kvRow("k", 0)}, nil)
	mustMerge(t, m, nil, []tuple.Tuple{kvRow("k", 1), kvRow("k", 2), kvRow("k", 3)}, nil)
	raws := m.Raws()
	if len(raws) != 2 || m.rawsDropped != 2 {
		t.Fatalf("raws=%d dropped=%d, want 2/2", len(raws), m.rawsDropped)
	}
	if raws[0][1].Int() != 2 || raws[1][1].Int() != 3 {
		t.Fatalf("FIFO eviction kept %v, want the newest two", raws)
	}
}

// TestMergeRawsCapNeverWritesPublishedRows: Raws hands out the merger's own
// slice, so eviction at the cap may not move rows within it. A slice taken
// at the cap reads the same after the merger has evicted every row of it,
// and the merger stays FIFO with an exact count throughout.
func TestMergeRawsCapNeverWritesPublishedRows(t *testing.T) {
	const max = 64
	m := NewMerger(rawOp(), Limits{MaxRaws: max})
	next := int64(0)
	add := func() {
		mustMerge(t, m, nil, []tuple.Tuple{kvRow("k", next)}, nil)
		next++
	}
	for next < max {
		add()
	}
	published := m.Raws()
	for next < 4*max {
		add()
		raws := m.Raws()
		if len(raws) != max || m.rawsDropped != next-max {
			t.Fatalf("after %d adds: %d rows held, %d dropped, want %d/%d", next, len(raws), m.rawsDropped, max, next-max)
		}
		if first, last := raws[0][1].Int(), raws[max-1][1].Int(); first != next-max || last != next-1 {
			t.Fatalf("after %d adds the merger holds rows %d..%d, want the newest %d", next, first, last, max)
		}
	}
	for i, row := range published {
		if row[1].Int() != int64(i) {
			t.Fatalf("published row %d now reads %v: eviction wrote into a slice Raws handed out", i, row)
		}
	}
}

func TestAccumulatorGroupCapOverflows(t *testing.T) {
	acc := NewAccumulator(aggOp())
	acc.SetLimits(Limits{MaxGroups: 2})
	for i, k := range []string{"a", "b", "c", "d", "c"} {
		acc.Add(kvRow(k, int64(i)))
	}
	groups := acc.Groups()
	if len(groups) != 3 { // a, b, and the overflow catch-all
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if groupsOverflowed(acc) != 3 { // c, d, c
		t.Fatalf("GroupsOverflowed = %d, want 3", groupsOverflowed(acc))
	}
	var overflow *Group
	for _, g := range groups {
		if g.Key == OverflowKey {
			overflow = g
		}
	}
	if overflow == nil {
		t.Fatal("no overflow group")
	}
	// The overflow row is self-describing and its aggregate is exact:
	// SUM(v) over the overflowed rows = 2 + 3 + 4.
	if got := overflow.States[0].Result().Int(); got != 9 {
		t.Fatalf("overflow SUM = %d, want 9", got)
	}
	rows := acc.Rows()
	found := false
	for _, r := range rows {
		if r[0].Str() == "(overflow)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no (overflow) row in %v", rows)
	}
}

func TestMergeRoutesOverflow(t *testing.T) {
	remote := NewAccumulator(aggOp())
	remote.SetLimits(Limits{MaxGroups: 1})
	remote.Add(kvRow("a", 1))
	remote.Add(kvRow("b", 2)) // overflows remotely

	local := NewAccumulator(aggOp())
	local.SetLimits(Limits{MaxGroups: 1})
	local.Add(kvRow("z", 5))
	mustMerge(t, &local.Merger, remote.Groups(), nil, nil)
	// "a" exceeds the local cap and lands in overflow; the remote
	// overflow group (holding b's 2) merges into the local overflow.
	var overflow *Group
	for _, g := range local.Groups() {
		if g.Key == OverflowKey {
			overflow = g
		}
	}
	if overflow == nil {
		t.Fatal("no local overflow group")
	}
	if got := overflow.States[0].Result().Int(); got != 3 {
		t.Fatalf("merged overflow SUM = %d, want 1+2=3", got)
	}
	if local.groupsOverflowed != 1 {
		t.Fatalf("local groups overflowed = %d, want 1", local.groupsOverflowed)
	}
}

func TestAccumulatorDefaultLimitsAreOn(t *testing.T) {
	var l Limits
	if l.maxGroups() != DefaultMaxGroups || l.maxRaws() != DefaultMaxRaws {
		t.Fatalf("zero limits = %d/%d", l.maxGroups(), l.maxRaws())
	}
	l = Limits{MaxGroups: -1, MaxRaws: -1}
	if l.maxGroups() != -1 || l.maxRaws() != -1 {
		t.Fatal("negative limits should disable the caps")
	}
	// Any negative value disables a cap, not just -1.
	l = Limits{MaxGroups: -7, MaxRaws: -7}
	groups, raws := NewAccumulator(aggOp()), NewAccumulator(rawOp())
	groups.SetLimits(l)
	raws.SetLimits(l)
	for i, k := range []string{"a", "b", "c"} {
		groups.Add(kvRow(k, int64(i)))
		raws.Add(kvRow(k, int64(i)))
	}
	for _, g := range groups.Groups() {
		if g.Key == OverflowKey {
			t.Fatal("MaxGroups -7 made an overflow group")
		}
	}
	if groupsOverflowed(groups) != 0 || len(groups.Groups()) != 3 {
		t.Fatalf("MaxGroups -7: %d groups, %d overflowed", len(groups.Groups()), groupsOverflowed(groups))
	}
	if rawsDropped(raws) != 0 || len(raws.Raws()) != 3 {
		t.Fatalf("MaxRaws -7: %d raws, %d dropped", len(raws.Raws()), rawsDropped(raws))
	}
}

func TestFaultLimitTripsBreakerOnce(t *testing.T) {
	em := &safetyEmitter{}
	a := &Advice{
		Prog: &Program{
			QueryID: "q", Tracepoint: "Tp",
			Safety: Safety{FaultLimit: 3},
		},
		Emitter: em,
	}
	for i := 0; i < 5; i++ {
		a.AdvicePanicked("Tp", "boom")
	}
	p := a.Prog
	if !p.Quarantined() {
		t.Fatal("breaker did not trip")
	}
	if n := p.Cost.Panics.Load(); n != 5 {
		t.Fatalf("Cost.Panics = %d, want 5", n)
	}
	if len(em.quarantined) != 1 {
		t.Fatalf("notifier fired %d times, want exactly once", len(em.quarantined))
	}
	if !strings.Contains(em.quarantined[0], "3 advice panics") {
		t.Fatalf("reason = %q", em.quarantined[0])
	}
}

func TestNegativeFaultLimitDisablesBreaker(t *testing.T) {
	em := &safetyEmitter{}
	a := &Advice{
		Prog:    &Program{QueryID: "q", Safety: Safety{FaultLimit: -1}},
		Emitter: em,
	}
	for i := 0; i < 100; i++ {
		a.AdvicePanicked("Tp", "boom")
	}
	if a.Prog.Quarantined() || len(em.quarantined) != 0 {
		t.Fatal("disabled breaker tripped")
	}
}

func TestCostCeilingQuarantinesBeforeMaterializing(t *testing.T) {
	em := &safetyEmitter{}
	spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"k", "v"}}
	bag := baggage.New()
	for i := int64(0); i < 8; i++ {
		bag.Pack("q.a", spec, kvRow("k", i))
	}
	ctx := baggage.NewContext(context.Background(), bag)

	a := &Advice{
		Prog: &Program{
			QueryID: "q", Tracepoint: "Tp",
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"b.host"},
			Unpacks:       []UnpackOp{{Slot: "q.a", Fields: tuple.Schema{"k", "v"}}},
			Safety:        Safety{CostCeiling: 4},
			Emit:          rawOp(),
		},
		Emitter: em,
	}
	a.Invoke(ctx, exported("h1", 0, "p"))
	if !a.Prog.Quarantined() {
		t.Fatal("cost ceiling did not quarantine")
	}
	if len(em.tuples) != 0 {
		t.Fatalf("emitted %d tuples past the ceiling", len(em.tuples))
	}
	if len(em.quarantined) != 1 || !strings.Contains(em.quarantined[0], "ceiling") {
		t.Fatalf("quarantine notices = %v", em.quarantined)
	}
	// Quarantined advice is inert: further crossings observe nothing.
	before := a.Prog.Cost.Invocations.Load()
	a.Invoke(ctx, exported("h1", 0, "p"))
	if a.Prog.Cost.Invocations.Load() != before {
		t.Fatal("quarantined advice still counts invocations")
	}
}

func TestAdviceDeliversDropRecordsBeforeJoin(t *testing.T) {
	em := &safetyEmitter{}
	spec := baggage.SetSpec{
		Kind: baggage.Agg, Fields: tuple.Schema{"k", "v"},
		GroupBy: []int{0}, Aggs: []baggage.AggField{{Pos: 1, Fn: agg.Sum}},
	}
	bag := baggage.New()
	// Two groups under a one-tuple budget: the older is evicted with a
	// tombstone; the join below still sees the survivor.
	budget := baggage.Budget{MaxTuples: 1}
	bag.PackBudgeted("q", "q.a", spec, budget, kvRow("k1", 1))
	bag.PackBudgeted("q", "q.a", spec, budget, kvRow("k2", 2))
	ctx := baggage.NewContext(context.Background(), bag)

	a := &Advice{
		Prog: &Program{
			QueryID: "q", Tracepoint: "Tp",
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"b.host"},
			Unpacks:       []UnpackOp{{Slot: "q.a", Fields: tuple.Schema{"k", "v"}}},
			Emit:          rawOp(),
		},
		Emitter: em,
	}
	a.Invoke(ctx, exported("h1", 0, "p"))
	if len(em.drops) != 1 || em.drops[0].Slot != "q.a" || em.drops[0].Key == "" {
		t.Fatalf("drop records = %v", em.drops)
	}
	if len(em.tuples) != 1 { // only the surviving group joined
		t.Fatalf("emitted = %v", em.tuples)
	}
}

func TestPackStatsReportedOnEviction(t *testing.T) {
	em := &safetyEmitter{}
	spec := baggage.SetSpec{
		Kind: baggage.Agg, Fields: tuple.Schema{"k", "v"},
		GroupBy: []int{0}, Aggs: []baggage.AggField{{Pos: 1, Fn: agg.Sum}},
	}
	bag := baggage.New()
	ctx := baggage.NewContext(context.Background(), bag)
	a := &Advice{
		Prog: &Program{
			QueryID: "q", Tracepoint: "Tp",
			Observe:       []int{0, 5, 6},
			ObserveFields: tuple.Schema{"a.host", "a.k", "a.v"},
			Pack:          &PackOp{Slot: "q.a", Spec: spec, Source: []int{1, 2}},
			Safety:        Safety{Budget: baggage.Budget{MaxTuples: 2}},
		},
		Emitter: em,
	}
	for i := int64(0); i < 5; i++ {
		a.Invoke(ctx, exported("h1", 0, "p", tuple.String(string(rune('a'+i))), tuple.Int(i)))
	}
	if em.packStats.EvictedGroups != 3 {
		t.Fatalf("EvictedGroups = %d, want 3", em.packStats.EvictedGroups)
	}
	if em.packStats.EvictedTuples != 3 || em.packStats.EvictedBytes <= 0 {
		t.Fatalf("pack stats = %+v", em.packStats)
	}
	if got := a.Prog.Cost.TuplesPacked.Load(); got != 5 {
		t.Fatalf("TuplesPacked = %d, want 5", got)
	}
}

// TestUnpackConflictsReachTheHost: a slot whose frozen and active
// contributions disagree on their spec loses one side when the unpack
// merges them, and the unpacking program hands that conflict to its host.
func TestUnpackConflictsReachTheHost(t *testing.T) {
	em := &safetyEmitter{}
	root := baggage.New()
	root.Pack("q.a", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"k", "v"}}, kvRow("k1", 1))
	branch, _ := root.Split()
	branch.Pack("q.a", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"k"}}, tuple.Tuple{tuple.String("k2")})
	a := &Advice{
		Prog: &Program{
			QueryID: "q", Tracepoint: "Tp",
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"b.host"},
			Unpacks:       []UnpackOp{{Slot: "q.a", Fields: tuple.Schema{"k", "v"}}},
			Emit:          rawOp(),
		},
		Emitter: em,
	}
	a.Invoke(baggage.NewContext(context.Background(), branch), exported("h1", 0, "p"))
	if em.packStats.Conflicts != 1 {
		t.Fatalf("conflicts noted = %d, want 1", em.packStats.Conflicts)
	}
}

// rawsDropped and groupsOverflowed read one of an accumulator's cap counts.
func rawsDropped(a *Accumulator) int64 { n, _ := a.CapCounts(); return n }

func groupsOverflowed(a *Accumulator) int64 { _, n := a.CapCounts(); return n }
