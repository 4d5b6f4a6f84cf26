package advice

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/tuple"
)

// collectEmitter records emitted working tuples.
type collectEmitter struct {
	tuples []tuple.Tuple
	progs  []*Program
}

func (c *collectEmitter) EmitTuple(p *Program, w tuple.Tuple) {
	c.progs = append(c.progs, p)
	c.tuples = append(c.tuples, w.Clone())
}

// exported builds a fake full tracepoint tuple:
// host, time, procName, procId, tracepoint, then extras.
func exported(host string, t int64, proc string, extras ...tuple.Value) tuple.Tuple {
	out := tuple.Tuple{
		tuple.String(host), tuple.Int(t), tuple.String(proc),
		tuple.Int(1), tuple.String("tp"),
	}
	return append(out, extras...)
}

func TestObserveEmit(t *testing.T) {
	em := &collectEmitter{}
	a := &Advice{
		Prog: &Program{
			QueryID:       "q",
			Observe:       []int{0, 5},
			ObserveFields: tuple.Schema{"host", "delta"},
			Emit: &EmitOp{
				Cols:    []EmitCol{{Pos: 0}, {IsAgg: true, Pos: 1, Fn: agg.Sum}},
				GroupBy: []int{0},
				Schema:  tuple.Schema{"host", "SUM(delta)"},
			},
		},
		Emitter: em,
	}
	a.Invoke(context.Background(), exported("h1", 0, "p", tuple.Int(100)))
	if len(em.tuples) != 1 || em.tuples[0][0].Str() != "h1" || em.tuples[0][1].Int() != 100 {
		t.Fatalf("emitted = %v", em.tuples)
	}
}

func TestPackThenUnpackJoins(t *testing.T) {
	// Simulates Q2: advice A1 packs procName at the client protocol
	// tracepoint; A2 unpacks it at the datanode metrics tracepoint.
	a1 := &Advice{Prog: &Program{
		QueryID:       "q2",
		Observe:       []int{2},
		ObserveFields: tuple.Schema{"procName"},
		Pack: &PackOp{
			Slot:   "q2.cl",
			Spec:   baggage.SetSpec{Kind: baggage.First, Fields: tuple.Schema{"procName"}},
			Source: []int{0},
		},
	}}
	em := &collectEmitter{}
	a2 := &Advice{
		Prog: &Program{
			QueryID:       "q2",
			Observe:       []int{5},
			ObserveFields: tuple.Schema{"delta"},
			Unpacks:       []UnpackOp{{Slot: "q2.cl", Fields: tuple.Schema{"procName"}}},
			Emit: &EmitOp{
				Cols:    []EmitCol{{Pos: 1}, {IsAgg: true, Pos: 0, Fn: agg.Sum}},
				GroupBy: []int{1},
				Schema:  tuple.Schema{"procName", "SUM(delta)"},
			},
		},
		Emitter: em,
	}

	ctx := baggage.NewContext(context.Background(), baggage.New())
	a1.Invoke(ctx, exported("client-host", 0, "HGET"))
	a2.Invoke(ctx, exported("dn-host", 1, "DataNode", tuple.Int(4096)))

	if len(em.tuples) != 1 {
		t.Fatalf("emitted = %v", em.tuples)
	}
	w := em.tuples[0]
	if w[0].Int() != 4096 || w[1].Str() != "HGET" {
		t.Fatalf("joined tuple = %v, want (4096, HGET)", w)
	}
}

func TestUnpackEmptyDropsObservation(t *testing.T) {
	em := &collectEmitter{}
	a := &Advice{
		Prog: &Program{
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"host"},
			Unpacks:       []UnpackOp{{Slot: "missing", Fields: tuple.Schema{"x"}}},
			Emit:          &EmitOp{Schema: tuple.Schema{"COUNT"}, Cols: []EmitCol{{IsAgg: true, Pos: -1, Fn: agg.Count}}},
		},
		Emitter: em,
	}
	// With baggage but empty slot: inner join drops.
	ctx := baggage.NewContext(context.Background(), baggage.New())
	a.Invoke(ctx, exported("h", 0, "p"))
	// Without any baggage at all: also drops.
	a.Invoke(context.Background(), exported("h", 0, "p"))
	if len(em.tuples) != 0 {
		t.Fatalf("emitted = %v, want none", em.tuples)
	}
}

// TestUnpackOfAnotherWidthDropsObservation: a slot whose tuples are not
// as wide as the unpack's fields — stale, or from a hostile peer — is
// treated as empty, since joining it would misalign every later position.
func TestUnpackOfAnotherWidthDropsObservation(t *testing.T) {
	bag := baggage.New()
	bag.Pack("s", baggage.SetSpec{Kind: baggage.First, Fields: tuple.Schema{"r"}}, tuple.Tuple{})
	em := &collectEmitter{}
	p := &Program{
		Observe:       []int{0},
		ObserveFields: tuple.Schema{"host"},
		Unpacks:       []UnpackOp{{Slot: "s", Fields: tuple.Schema{"r"}}},
		Emit:          &EmitOp{Cols: []EmitCol{{Pos: 0}, {Pos: 1}}, GroupBy: []int{0, 1}, Schema: tuple.Schema{"host", "r"}},
	}
	a := &Advice{Prog: p, Emitter: em}
	a.Invoke(baggage.NewContext(context.Background(), bag), exported("h", 0, "p"))
	if len(em.tuples) != 0 || p.Cost.DroppedByJoin.Load() != 1 {
		t.Fatalf("emitted %v with %d dropped by the join, want nothing emitted and 1 dropped", em.tuples, p.Cost.DroppedByJoin.Load())
	}
}

func TestUnpackCartesianProduct(t *testing.T) {
	bag := baggage.New()
	spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"r"}}
	bag.Pack("s", spec, tuple.Tuple{tuple.String("r1")}, tuple.Tuple{tuple.String("r2")})
	em := &collectEmitter{}
	a := &Advice{
		Prog: &Program{
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"host"},
			Unpacks:       []UnpackOp{{Slot: "s", Fields: tuple.Schema{"r"}}},
			Emit:          &EmitOp{Cols: []EmitCol{{Pos: 0}, {Pos: 1}}, GroupBy: []int{0, 1}, Schema: tuple.Schema{"host", "r"}},
		},
		Emitter: em,
	}
	a.Invoke(baggage.NewContext(context.Background(), bag), exported("h", 0, "p"))
	if len(em.tuples) != 2 {
		t.Fatalf("emitted %d tuples, want 2", len(em.tuples))
	}
}

func TestFilterDropsNonMatching(t *testing.T) {
	// Q7-style: Where st.host != DNop.host
	bag := baggage.New()
	spec := baggage.SetSpec{Kind: baggage.First, Fields: tuple.Schema{"host"}}
	bag.Pack("st", spec, tuple.Tuple{tuple.String("h1")})

	pred, err := query.Parse(`From DNop In X Where st.host != DNop.host Select COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	em := &collectEmitter{}
	a := &Advice{
		Prog: &Program{
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"host"},
			Unpacks:       []UnpackOp{{Slot: "st", Fields: tuple.Schema{"host"}}},
			Filters: []Expr{BindExpr(pred.Where[0], map[query.FieldRef]int{
				{Alias: "DNop", Field: "host"}: 0,
				{Alias: "st", Field: "host"}:   1,
			})},
			Emit: &EmitOp{Cols: []EmitCol{{Pos: 0}}, GroupBy: []int{0}, Schema: tuple.Schema{"host"}},
		},
		Emitter: em,
	}
	ctx := baggage.NewContext(context.Background(), bag)
	a.Invoke(ctx, exported("h1", 0, "p")) // same host: filtered out
	a.Invoke(ctx, exported("h2", 0, "p")) // different host: kept
	if len(em.tuples) != 1 || em.tuples[0][0].Str() != "h2" {
		t.Fatalf("emitted = %v", em.tuples)
	}
}

func TestPackWithoutBaggageIsSafeNoop(t *testing.T) {
	a := &Advice{Prog: &Program{
		Observe:       []int{0},
		ObserveFields: tuple.Schema{"host"},
		Pack: &PackOp{
			Slot:   "s",
			Spec:   baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"host"}},
			Source: []int{0},
		},
	}}
	a.Invoke(context.Background(), exported("h", 0, "p")) // must not panic
}

func TestChainedPackCarriesUpstreamFields(t *testing.T) {
	// Q7-style chain: st packs host; getloc unpacks it and packs
	// (replicas, st.host) onward; DNop unpacks the combined tuple.
	bag := baggage.New()
	ctx := baggage.NewContext(context.Background(), bag)

	stAdvice := &Advice{Prog: &Program{
		Observe:       []int{0},
		ObserveFields: tuple.Schema{"host"},
		Pack: &PackOp{
			Slot:   "q.st",
			Spec:   baggage.SetSpec{Kind: baggage.First, Fields: tuple.Schema{"host"}},
			Source: []int{0},
		},
	}}
	getlocAdvice := &Advice{Prog: &Program{
		Observe:       []int{5},
		ObserveFields: tuple.Schema{"replicas"},
		Unpacks:       []UnpackOp{{Slot: "q.st", Fields: tuple.Schema{"host"}}},
		Pack: &PackOp{
			Slot: "q.getloc",
			Spec: baggage.SetSpec{Kind: baggage.All,
				Fields: tuple.Schema{"replicas", "host"}},
			Source: []int{0, 1},
		},
	}}
	em := &collectEmitter{}
	dnopAdvice := &Advice{
		Prog: &Program{
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"host"},
			Unpacks:       []UnpackOp{{Slot: "q.getloc", Fields: tuple.Schema{"replicas", "sthost"}}},
			Emit:          &EmitOp{Cols: []EmitCol{{Pos: 0}, {Pos: 1}, {Pos: 2}}, GroupBy: []int{0, 1, 2}, Schema: tuple.Schema{"host", "replicas", "sthost"}},
		},
		Emitter: em,
	}

	stAdvice.Invoke(ctx, exported("client1", 0, "StressTest"))
	getlocAdvice.Invoke(ctx, exported("nn", 1, "NameNode", tuple.String("dn1,dn2,dn3")))
	dnopAdvice.Invoke(ctx, exported("dn2", 2, "DataNode"))

	if len(em.tuples) != 1 {
		t.Fatalf("emitted = %v", em.tuples)
	}
	w := em.tuples[0]
	if w[0].Str() != "dn2" || w[1].Str() != "dn1,dn2,dn3" || w[2].Str() != "client1" {
		t.Fatalf("chained tuple = %v", w)
	}
}

func TestProgramStringMatchesPaperNotation(t *testing.T) {
	p := &Program{
		Observe:       []int{5},
		ObserveFields: tuple.Schema{"delta"},
		Unpacks:       []UnpackOp{{Slot: "q2.cl", Fields: tuple.Schema{"procName"}}},
		Emit:          &EmitOp{Schema: tuple.Schema{"procName", "SUM(delta)"}},
	}
	s := p.String()
	for _, want := range []string{"OBSERVE delta", "UNPACK procName", "EMIT procName, SUM(delta)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	p2 := &Program{
		Observe:       []int{2},
		ObserveFields: tuple.Schema{"procName"},
		Pack: &PackOp{
			Spec: baggage.SetSpec{Kind: baggage.First, Fields: tuple.Schema{"procName"}},
		},
	}
	if s := p2.String(); !strings.Contains(s, "PACK-FIRST procName") {
		t.Errorf("String() = %q, missing PACK-FIRST", s)
	}
}

// TestWorkingSchema: the working tuple an advice emits holds its observed
// fields, then each unpack's fields in unpack order.
func TestWorkingSchema(t *testing.T) {
	bag := baggage.New()
	bag.Pack("sb", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"b"}}, tuple.Tuple{tuple.String("B")})
	bag.Pack("scd", baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"c", "d"}}, tuple.Tuple{tuple.String("C"), tuple.String("D")})
	em := &collectEmitter{}
	a := &Advice{
		Prog: &Program{
			Observe:       []int{0},
			ObserveFields: tuple.Schema{"a"},
			Unpacks: []UnpackOp{
				{Slot: "sb", Fields: tuple.Schema{"b"}},
				{Slot: "scd", Fields: tuple.Schema{"c", "d"}},
			},
			Emit: &EmitOp{Raw: true, Cols: []EmitCol{{Pos: 0}}, Schema: tuple.Schema{"a"}},
		},
		Emitter: em,
	}
	a.Invoke(baggage.NewContext(context.Background(), bag), exported("A", 0, "p"))
	want := tuple.Tuple{tuple.String("A"), tuple.String("B"), tuple.String("C"), tuple.String("D")}
	if len(em.tuples) != 1 || !em.tuples[0].Equal(want) {
		t.Fatalf("working tuples = %v, want %v", em.tuples, want)
	}
}

func TestClampRate(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0.5, 0.5},
		{1, 1},
		{0.001, 0.001},
		{0, 0},
		{-0.5, 0},
		{1.5, 0},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{math.MaxFloat64, 0},
		// Subnormal: in (0, 1] but 1/r overflows to +Inf — the weight
		// would poison every aggregate it touches.
		{5e-324, 0},
		{1e-300, 1e-300}, // tiny but usable: the weight 1e300 is finite
	}
	for _, c := range cases {
		if got := ClampRate(c.in); got != c.want {
			t.Errorf("ClampRate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
