package advice

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/randtest"
	"repro/internal/tuple"
)

func mustMerge(t *testing.T, m *Merger, groups []*Group, raws []tuple.Tuple, drops []baggage.DropRecord) {
	t.Helper()
	if _, err := m.Merge(groups, raws, drops); err != nil {
		t.Fatalf("Merge: %v", err)
	}
}

// algebraOp is the property test's query: GroupBy k Select k, SUM(v),
// COUNT, MAX(v) — one aggregate of each merge flavour.
func algebraOp() *EmitOp {
	return &EmitOp{
		Cols: []EmitCol{
			{Pos: 0},
			{IsAgg: true, Pos: 1, Fn: agg.Sum},
			{IsAgg: true, Pos: -1, Fn: agg.Count},
			{IsAgg: true, Pos: 1, Fn: agg.Max},
		},
		GroupBy: []int{0},
		Schema:  tuple.Schema{"k", "SUM(v)", "COUNT", "MAX(v)"},
	}
}

// report is one leaf of a merge tree, in the shape agents publish.
type report struct {
	groups []*Group
	raws   []tuple.Tuple
	drops  []baggage.DropRecord
}

// genReports draws n random reports: groups over a small key pool that
// includes OverflowKey (an agent whose own cap overflowed), states folded
// at weights 1, 2 and 4 (inexact, but powers of two keep every float sum
// exact so equality is well-defined), raw rows, and tombstones drawn from
// a pool small enough that reports repeat each other's.
func genReports(rng *rand.Rand, n int) []report {
	keys := []string{"a", "b", "c", "d", "e", OverflowKey}
	weights := []float64{1, 1, 1, 2, 4}
	dropPool := []baggage.DropRecord{
		{Slot: "Q.x", Key: "k1"}, {Slot: "Q.x", Key: "k2"}, {Slot: "Q.x"},
		{Slot: "Q.y"}, {Slot: "Q.z", Key: "k1"},
	}
	out := make([]report, n)
	for i := range out {
		r := &out[i]
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				continue
			}
			rep := tuple.Tuple{tuple.String(k), tuple.Int(0)}
			if k == OverflowKey {
				rep[0] = tuple.String("(overflow)")
			}
			g := &Group{Key: k, Rep: rep, States: []agg.State{agg.Make(agg.Sum), agg.Make(agg.Count), agg.Make(agg.Max)}}
			for f := rng.Intn(4); f >= 0; f-- {
				v, w := tuple.Int(int64(rng.Intn(100))), weights[rng.Intn(len(weights))]
				g.States[0].AddWeighted(v, w)
				g.States[1].AddWeighted(tuple.Null, w)
				g.States[2].AddWeighted(v, w)
			}
			r.groups = append(r.groups, g)
		}
		for f := rng.Intn(3); f > 0; f-- {
			r.raws = append(r.raws, tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(rng.Intn(10)))})
		}
		for f := rng.Intn(4); f > 0; f-- {
			r.drops = append(r.drops, dropPool[rng.Intn(len(dropPool))])
		}
	}
	return out
}

// canonical renders a report — or a merger's way out — in a form
// independent of arrival order: groups by key with their full encoded
// states (counts, weights, inexact flags) and the representative's
// projected column, raws as a sorted multiset, drops sorted.
func canonical(r report) string {
	var b bytes.Buffer
	groups := append([]*Group(nil), r.groups...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	for _, g := range groups {
		fmt.Fprintf(&b, "group %q rep=%v", g.Key, g.Rep[0])
		for i := range g.States {
			fmt.Fprintf(&b, " %x", g.States[i].Append(nil))
		}
		b.WriteByte('\n')
	}
	raws := make([]string, 0, len(r.raws))
	for _, row := range r.raws {
		raws = append(raws, row.String())
	}
	sort.Strings(raws)
	var drops baggage.DropSet
	drops.Add(r.drops...)
	fmt.Fprintf(&b, "raws %v\ndrops %v\n", raws, drops.Sorted())
	return b.String()
}

func drained(m *Merger) string {
	return canonical(report{m.Groups(), m.Raws(), m.Drops()}) + fmt.Sprintf("dropped-groups=%d\n", m.DroppedGroups())
}

func canonicalReports(rs []report) string {
	var b bytes.Buffer
	for _, r := range rs {
		b.WriteString(canonical(r))
	}
	return b.String()
}

// mergeTree folds the reports through depth intermediate tiers into a root
// merger: at each tier the inputs are shuffled and dealt at random to 1–3
// op-less unbounded mergers (combiner tiers), whose drains are the next
// tier's inputs.
func mergeTree(rng *rand.Rand, inputs []report, depth int) (*Merger, error) {
	feed := func(m *Merger, rs []report) error {
		for _, i := range rng.Perm(len(rs)) {
			if _, err := m.Merge(rs[i].groups, rs[i].raws, rs[i].drops); err != nil {
				return err
			}
		}
		return nil
	}
	for ; depth > 0; depth-- {
		tiers := make([][]report, 1+rng.Intn(3))
		for _, r := range inputs {
			t := rng.Intn(len(tiers))
			tiers[t] = append(tiers[t], r)
		}
		inputs = inputs[:0:0]
		for _, rs := range tiers {
			mid := NewMerger(nil, Unbounded)
			if err := feed(mid, rs); err != nil {
				return nil, err
			}
			inputs = append(inputs, report{mid.Groups(), mid.Raws(), mid.Drops()})
		}
	}
	root := NewMerger(algebraOp(), Unbounded)
	return root, feed(root, inputs)
}

// TestMergeAlgebra is the one property the whole report path rests on:
// however the same reports are partitioned into a merge tree (flat, one
// combiner tier, two), and in whatever order each tier sees its inputs,
// the root drains to the same groups, raws and drops — and no published
// report is mutated on the way.
func TestMergeAlgebra(t *testing.T) {
	randtest.Check(t, 300, 7_000_000, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		reports := genReports(rng, 1+rng.Intn(8))
		before := canonicalReports(reports)

		// Reference: every report merged at the root, in order.
		ref := NewMerger(algebraOp(), Unbounded)
		for _, r := range reports {
			if _, err := ref.Merge(r.groups, r.raws, r.drops); err != nil {
				return err
			}
		}
		want := drained(ref)
		for depth := 0; depth <= 2; depth++ {
			for trial := 0; trial < 3; trial++ {
				root, err := mergeTree(rng, reports, depth)
				if err != nil {
					return fmt.Errorf("depth %d: %w", depth, err)
				}
				if got := drained(root); got != want {
					return fmt.Errorf("depth %d tree diverges from the flat in-order merge\n got:\n%s\nwant:\n%s", depth, got, want)
				}
			}
		}
		if after := canonicalReports(reports); after != before {
			return fmt.Errorf("merging mutated a published report\nbefore:\n%s\nafter:\n%s", before, after)
		}
		return nil
	})
}

// TestMergeMatchesDirectFold pins the algebra to ground truth rather than
// to itself: tuples folded into several accumulators and merged equal the
// same tuples folded into one.
func TestMergeMatchesDirectFold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	one := NewAccumulator(algebraOp())
	parts := []*Accumulator{NewAccumulator(algebraOp()), NewAccumulator(algebraOp()), NewAccumulator(algebraOp())}
	for i := 0; i < 500; i++ {
		w := tuple.Tuple{tuple.String(fmt.Sprintf("k%d", rng.Intn(7))), tuple.Int(int64(rng.Intn(1000)))}
		weight := []float64{1, 1, 2}[rng.Intn(3)]
		one.AddWeighted(w, weight)
		parts[rng.Intn(len(parts))].AddWeighted(w, weight)
	}
	merged := NewMerger(algebraOp(), Unbounded)
	for _, p := range parts {
		mustMerge(t, merged, p.Groups(), nil, nil)
	}
	if got, want := drained(merged), drained(&one.Merger); got != want {
		t.Fatalf("merged partials differ from the direct fold\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeRejectsMalformedShape: a group whose states do not match the
// query's aggregates — wrong count, wrong function, a nil group, or a
// representative too short for Rows to project — rejects the whole report
// and leaves the merger untouched, with and without an Op.
func TestMergeRejectsMalformedShape(t *testing.T) {
	good := func(k string) *Group {
		return &Group{Key: k, Rep: tuple.Tuple{tuple.String(k), tuple.Int(1)},
			States: []agg.State{agg.Make(agg.Sum), agg.Make(agg.Count), agg.Make(agg.Max)}}
	}
	bad := map[string]*Group{
		"one state too few": {Key: "x", Rep: good("x").Rep, States: good("x").States[:2]},
		"one state too many": {Key: "x", Rep: good("x").Rep,
			States: append(good("x").States, agg.Make(agg.Count))},
		"wrong function": {Key: "x", Rep: good("x").Rep,
			States: []agg.State{agg.Make(agg.Sum), agg.Make(agg.Min), agg.Make(agg.Max)}},
		"nil group": nil,
	}
	for _, withOp := range []bool{true, false} {
		for name, g := range bad {
			m := NewMerger(nil, Unbounded)
			if withOp {
				m = NewMerger(algebraOp(), Limits{})
			}
			mustMerge(t, m, []*Group{good("a")}, nil, nil)
			before := drained(m)
			n, err := m.Merge([]*Group{good("b"), g}, []tuple.Tuple{{tuple.Int(1)}}, []baggage.DropRecord{{Slot: "s"}})
			if err == nil || n != 0 {
				t.Errorf("op=%v %s: Merge = (%d, %v), want rejection", withOp, name, n, err)
			}
			if after := drained(m); after != before {
				t.Errorf("op=%v %s: rejected report changed the merger\nbefore:\n%s\nafter:\n%s", withOp, name, before, after)
			}
			if withOp {
				m.Rows() // must not panic
			}
		}
	}

	// With an Op the very first report is checked against the query, and a
	// representative Rows could not project is refused.
	m := NewMerger(algebraOp(), Limits{})
	if _, err := m.Merge([]*Group{bad["one state too few"]}, nil, nil); err == nil {
		t.Error("first report with a missing state was accepted")
	}
	short := good("x")
	short.Rep = nil
	if _, err := m.Merge([]*Group{short}, nil, nil); err == nil {
		t.Error("group with an empty representative was accepted")
	}
	if !m.Empty() {
		t.Errorf("rejected reports left state behind:\n%s", drained(m))
	}
}

// TestMergerReleaseReusesOnlyTheLatestHandoff: a merger builds the
// interval after a released handoff in the released rows, so the same
// keys land in the same memory; a handoff that another followed, or whose
// rows a group made before the Release retired, stays with its readers,
// and releasing twice changes nothing.
func TestMergerReleaseReusesOnlyTheLatestHandoff(t *testing.T) {
	in := func(n int64) []*Group {
		var out []*Group
		for _, k := range []string{"a", "b", "c"} {
			st := agg.Make(agg.Count)
			for i := int64(0); i < n; i++ {
				st.Add(tuple.Int(1))
			}
			out = append(out, &Group{Key: k, Rep: tuple.Tuple{tuple.String(k)}, States: []agg.State{st}})
		}
		return out
	}
	m := NewMerger(nil, Unbounded)
	mustMerge(t, m, in(1), nil, nil)
	d := m.Handoff()
	first := d.Groups()[0]
	m.Release(m.Handoffs())
	mustMerge(t, m, in(2), nil, nil)
	if g := m.Groups()[0]; g != first || g.Key != "a" || g.States[0].Result().Int() != 2 {
		t.Fatalf("the interval after a Release built group %p %+v, want %p reused with count 2", g, g, first)
	}

	// A Handoff follows before the Release: what it handed out is kept.
	d = m.Handoff()
	stale := m.Handoffs()
	mustMerge(t, m, in(3), nil, nil)
	kept := m.Handoff()
	keptFirst := kept.Groups()[0]
	m.Release(stale)
	mustMerge(t, m, in(4), nil, nil)
	if keptFirst.Key != "a" || keptFirst.States[0].Result().Int() != 3 {
		t.Fatalf("a stale Release reclaimed the later handoff's rows: %+v", keptFirst)
	}

	// A group before the Release retires the lent rows.
	d = m.Handoff()
	lentFirst := d.Groups()[0]
	n := m.Handoffs()
	mustMerge(t, m, in(5), nil, nil)
	m.Release(n)
	m.Release(n)
	if lentFirst.Key != "a" || lentFirst.States[0].Result().Int() != 4 {
		t.Fatalf("a Release after new groups reclaimed the handoff's rows: %+v", lentFirst)
	}
	if g := m.Groups(); len(g) != 3 || g[0].States[0].Result().Int() != 5 {
		t.Fatalf("the interval in progress reads %+v, want three groups, count 5", g)
	}
}
