package advice

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/tuple"
)

func groupedOp() *EmitOp {
	return &EmitOp{
		Cols: []EmitCol{
			{Pos: 0},
			{IsAgg: true, Pos: 1, Fn: agg.Sum},
			{IsAgg: true, Pos: -1, Fn: agg.Count},
		},
		GroupBy: []int{0},
		Schema:  tuple.Schema{"k", "SUM(v)", "COUNT"},
	}
}

func TestAccumulatorGroupsAndRows(t *testing.T) {
	acc := NewAccumulator(groupedOp())
	if !acc.Empty() {
		t.Fatal("new accumulator should be empty")
	}
	acc.Add(tuple.Tuple{tuple.String("a"), tuple.Int(5)})
	acc.Add(tuple.Tuple{tuple.String("a"), tuple.Int(7)})
	acc.Add(tuple.Tuple{tuple.String("b"), tuple.Int(1)})
	rows := acc.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Str() != "a" || rows[0][1].Int() != 12 || rows[0][2].Int() != 2 {
		t.Errorf("row a = %v", rows[0])
	}
	if rows[1][0].Str() != "b" || rows[1][1].Int() != 1 || rows[1][2].Int() != 1 {
		t.Errorf("row b = %v", rows[1])
	}
}

func TestAccumulatorRawMode(t *testing.T) {
	op := &EmitOp{
		Cols:   []EmitCol{{Pos: 1}, {Pos: 0}},
		Raw:    true,
		Schema: tuple.Schema{"b", "a"},
	}
	acc := NewAccumulator(op)
	acc.Add(tuple.Tuple{tuple.Int(1), tuple.Int(2)})
	mustMerge(t, &acc.Merger, nil, []tuple.Tuple{{tuple.Int(9), tuple.Int(8)}}, nil)
	rows := acc.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Int() != 2 || rows[0][1].Int() != 1 {
		t.Errorf("raw projection = %v", rows[0])
	}
	if len(acc.Raws()) != 2 {
		t.Errorf("raws = %v", acc.Raws())
	}
	acc.Reset()
	if !acc.Empty() {
		t.Error("reset should empty the accumulator")
	}
}

func TestGroupClone(t *testing.T) {
	acc := NewAccumulator(groupedOp())
	acc.Add(tuple.Tuple{tuple.String("k"), tuple.Int(3)})
	g := acc.Groups()[0]
	c := g.Clone()
	c.States[0].Add(tuple.Int(100))
	if g.States[0].Result().Int() != 3 {
		t.Error("Clone aliases aggregate state")
	}
	c.Rep[0] = tuple.String("mutated")
	if g.Rep[0].Str() != "k" {
		t.Error("Clone aliases rep tuple")
	}
}

func TestFilterEvalMissingBinding(t *testing.T) {
	// A filter referencing an unbound field evaluates it as null; the
	// predicate "x.y = 1" is then false rather than panicking.
	q, err := query.Parse(`From e In Tp Where x.y = 1 Select COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	f := BindExpr(q.Where[0], nil)
	if f.Eval(tuple.Tuple{}).Bool() {
		t.Error("unbound comparison should be false")
	}
	q2, _ := query.Parse(`From e In Tp Where true Select COUNT`)
	f2 := BindExpr(q2.Where[0], nil)
	if !f2.Eval(tuple.Tuple{}).Bool() {
		t.Error("constant-true filter failed")
	}
}

func TestProgramStringAllOps(t *testing.T) {
	p := &Program{
		Observe:       []int{0},
		ObserveFields: tuple.Schema{"x"},
		Unpacks:       []UnpackOp{{Slot: "s", Fields: tuple.Schema{"y"}}},
		Pack: &PackOp{
			Slot: "out",
			Spec: baggage.SetSpec{
				Kind:    baggage.Agg,
				Fields:  tuple.Schema{"y", "sum"},
				GroupBy: []int{0},
				Aggs:    []baggage.AggField{{Pos: 1, Fn: agg.Sum}},
			},
		},
	}
	s := p.String()
	for _, want := range []string{"OBSERVE x", "UNPACK y", "PACK-AGG", "SUM(sum)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	// Kind variants.
	kinds := map[baggage.SetKind]string{
		baggage.FirstN:  "PACK-FIRST2",
		baggage.Recent:  "PACK-RECENT",
		baggage.RecentN: "PACK-RECENT2",
	}
	for k, want := range kinds {
		p.Pack.Spec = baggage.SetSpec{Kind: k, N: 2, Fields: tuple.Schema{"y"}}
		if s := p.String(); !strings.Contains(s, want) {
			t.Errorf("kind %v: String() = %q, missing %q", k, s, want)
		}
	}
	// Empty observe renders a placeholder.
	p2 := &Program{Emit: &EmitOp{Schema: tuple.Schema{"COUNT"}}}
	if s := p2.String(); !strings.Contains(s, "OBSERVE -") {
		t.Errorf("empty observe: %q", s)
	}
}

// TestSamplingCounters: a crossing the request's sampling decision
// suppressed counts one invocation and one sample and emits nothing; a
// kept one emits, and a request with no decision is processed exactly.
func TestSamplingCounters(t *testing.T) {
	emitted := 0
	a := &Advice{
		Prog: &Program{
			QueryID:       "Q",
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"host"},
			Emit:          &EmitOp{Raw: true, Cols: []EmitCol{{Pos: 0}}, Schema: tuple.Schema{"host"}},
			SampleRate:    0.25,
		},
		Emitter: emitFn(func(*Program, tuple.Tuple) { emitted++ }),
	}
	request := func(rate float64) context.Context {
		bag := baggage.New()
		bag.PackSampleDecision("Q", rate)
		return baggage.NewContext(context.Background(), bag)
	}
	a.Invoke(request(0), exported("h", 0, "p"))
	cost := &a.Prog.Cost
	if emitted != 0 || cost.Invocations.Load() != 1 || cost.Sampled.Load() != 1 {
		t.Errorf("sampled-out crossing: emitted %d, invocations %d, sampled %d; want 0, 1, 1",
			emitted, cost.Invocations.Load(), cost.Sampled.Load())
	}
	a.Invoke(request(0.25), exported("h", 0, "p"))
	a.Invoke(context.Background(), exported("h", 0, "p"))
	if emitted != 2 || cost.Invocations.Load() != 3 || cost.Sampled.Load() != 1 || cost.TuplesEmitted.Load() != 2 {
		t.Errorf("kept and undecided crossings: emitted %d, invocations %d, sampled %d, emitted counter %d; want 2, 3, 1, 2",
			emitted, cost.Invocations.Load(), cost.Sampled.Load(), cost.TuplesEmitted.Load())
	}
}

type emitFn func(*Program, tuple.Tuple)

func (f emitFn) EmitTuple(p *Program, w tuple.Tuple) { f(p, w) }

// appendGroups encodes groups' keys, representatives and states, so two
// readings of the same groups can be compared byte for byte.
func appendGroups(buf []byte, groups []*Group) []byte {
	for _, g := range groups {
		buf = append(buf, g.Key...)
		buf = tuple.AppendTuple(buf, g.Rep)
		for i := range g.States {
			buf = g.States[i].Append(buf)
		}
	}
	return buf
}

// TestDrainedGroupsSurviveNextInterval: the group table passes from a
// drained merger to its successor, but the groups do not. A second
// interval over the same keys, with other values, leaves what the first
// Drain handed out byte-identical.
func TestDrainedGroupsSurviveNextInterval(t *testing.T) {
	const rows = 512
	acc := NewAccumulator(aggOp())
	for i := 0; i < rows; i++ {
		acc.Add(kvRow(fmt.Sprintf("k%d", i), int64(i)))
	}
	groups, _, _ := acc.Drain()
	before := appendGroups(nil, groups)
	for i := 0; i < rows; i++ {
		acc.Add(kvRow(fmt.Sprintf("k%d", i), int64(-7*i-1)))
	}
	second, _, _ := acc.Drain()
	if after := appendGroups(nil, groups); !bytes.Equal(before, after) {
		t.Fatal("folding in the second interval rewrote groups the first Drain handed out")
	}
	if n := len(groups); n != rows {
		t.Errorf("the first Drain handed out %d groups, want %d", n, rows)
	}
	if len(second) != rows || second[1].States[0].Result().Int() != -8 {
		t.Errorf("the second interval's groups are not its own: %d groups, k1 = %v", len(second), second[1].States[0].Result())
	}
}
