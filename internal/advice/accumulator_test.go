package advice

import (
	"context"
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
	f := &FilterOp{Expr: q.Where[0], Bindings: nil}
	if f.Eval(tuple.Tuple{}) {
		t.Error("unbound comparison should be false")
	}
	q2, _ := query.Parse(`From e In Tp Where true Select COUNT`)
	f2 := &FilterOp{Expr: q2.Where[0], Bindings: nil}
	if !f2.Eval(tuple.Tuple{}) {
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

func TestSamplingCounters(t *testing.T) {
	emitted := 0
	a := &Advice{
		Prog: &Program{
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"host"},
			Emit:          &EmitOp{Raw: true, Cols: []EmitCol{{Pos: 0}}, Schema: tuple.Schema{"host"}},
			SampleEvery:   4,
		},
		Emitter: emitFn(func(*Program, tuple.Tuple) { emitted++ }),
	}
	for i := 0; i < 16; i++ {
		a.Invoke(context.Background(), exported("h", 0, "p"))
	}
	if emitted != 4 {
		t.Errorf("emitted = %d with 1-in-4 sampling of 16, want 4", emitted)
	}
	if got := a.Prog.Cost.Sampled.Load(); got != 12 {
		t.Errorf("sampled = %d, want 12", got)
	}
	if got := a.Prog.Cost.TuplesEmitted.Load(); got != 4 {
		t.Errorf("emitted counter = %d, want 4", got)
	}
}

type emitFn func(*Program, tuple.Tuple)

func (f emitFn) EmitTuple(p *Program, w tuple.Tuple) { f(p, w) }
