package baseline

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

func newRequest(host, proc string) context.Context {
	ctx := tracepoint.WithProc(context.Background(), tracepoint.ProcInfo{
		Host: host, ProcName: proc, ProcID: 1,
	})
	return baggage.NewContext(ctx, baggage.New())
}

// weaveBaseline installs the evaluator's probes on the registry.
func weaveBaseline(t *testing.T, reg *tracepoint.Registry, text string) *Evaluator {
	t.Helper()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(q, reg)
	if err != nil {
		t.Fatal(err)
	}
	for tp, probe := range ev.Probes() {
		if err := reg.Weave(tp, probe); err != nil {
			t.Fatal(err)
		}
	}
	return ev
}

// weavePlan installs the query's optimized in-baggage plan on the
// registry, accumulating its output in one process-local accumulator.
func weavePlan(t *testing.T, reg *tracepoint.Registry, text string) *advice.Accumulator {
	t.Helper()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q.Name = "q"
	p, err := plan.Compile(q, reg, nil, plan.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	acc := advice.NewAccumulator(p.Emit.Emit)
	em := emitFunc(func(prog *advice.Program, w tuple.Tuple) { acc.Add(w) })
	for _, prog := range p.Programs {
		if err := reg.Weave(prog.Tracepoint, &advice.Advice{Prog: prog, Emitter: em}); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestBaselineNestedTemporalMatchesPlan: First(B) keeps the first B whose
// own join found an A, so the B that fired before any A contributes
// nothing, and the global evaluation must agree with the in-baggage plan.
func TestBaselineNestedTemporalMatchesPlan(t *testing.T) {
	text := `From c In C
	  Join b In First(B) On b -> c
	  Join a In A On a -> b
	  Select a.a, b.b, c.c`
	var regs [2]*tracepoint.Registry
	for i := range regs {
		regs[i] = tracepoint.NewRegistry()
		regs[i].Define("A", "a")
		regs[i].Define("B", "b")
		regs[i].Define("C", "c")
	}
	ev := weaveBaseline(t, regs[0], text)
	acc := weavePlan(t, regs[1], text)
	for _, reg := range regs {
		ctx := newRequest("h", "p")
		reg.Lookup("B").Here(ctx, 1)
		reg.Lookup("A").Here(ctx, 10)
		reg.Lookup("B").Here(ctx, 2)
		reg.Lookup("C").Here(ctx, 100)
	}
	base, err := ev.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	opt := acc.Rows()
	if len(opt) != 1 || !bytes.Equal(oracle.Canonical(base), oracle.Canonical(opt)) {
		t.Fatalf("baseline %v, optimized plan %v", base, opt)
	}
}

func TestBaselineSimpleJoin(t *testing.T) {
	reg := tracepoint.NewRegistry()
	reg.Define("Client")
	reg.Define("Server", "bytes")
	ev := weaveBaseline(t, reg,
		`From s In Server
		 Join c In First(Client) On c -> s
		 GroupBy c.procName
		 Select c.procName, SUM(s.bytes)`)

	client := reg.Lookup("Client")
	server := reg.Lookup("Server")
	for i, app := range []string{"appA", "appB", "appA"} {
		ctx := newRequest("h", app)
		client.Here(ctx)
		server.Here(ctx, (i+1)*100)
	}
	// A request never crossing Client contributes nothing (inner join).
	server.Here(newRequest("h", "orphan"), 999)

	rows, err := ev.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r[0].Str()] = r[1].Int()
	}
	if got["appA"] != 400 || got["appB"] != 200 {
		t.Fatalf("rows = %v", rows)
	}
	tuples, _ := ev.Stats()
	if tuples != 7 {
		t.Errorf("baseline emitted %d tuples, want 7 (every crossing)", tuples)
	}
}

func TestBaselineFrontierSurvivesBranches(t *testing.T) {
	reg := tracepoint.NewRegistry()
	reg.Define("A")
	reg.Define("B")
	ev := weaveBaseline(t, reg,
		`From b In B
		 Join a In A On a -> b
		 GroupBy a.procName
		 Select a.procName, COUNT`)

	a := reg.Lookup("A")
	b := reg.Lookup("B")

	// One request that branches: A fires on both branches, B after join.
	ctx := newRequest("h", "p")
	bag := baggage.FromContext(ctx)
	a.Here(ctx)
	l, r := bag.Split()
	lctx := baggage.NewContext(ctx, l)
	rctx := baggage.NewContext(ctx, r)
	a.Here(lctx)
	a.Here(rctx)
	joined := baggage.Join(l, r)
	b.Here(baggage.NewContext(ctx, joined))

	rows, err := ev.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// All three A events causally precede the B event.
	if len(rows) != 1 || rows[0][1].Int() != 3 {
		t.Fatalf("rows = %v, want count 3", rows)
	}
}

// TestQuickBaselineMatchesOptimizedPlan is the central equivalence
// property (Table 3 correctness): for random linear executions, the
// optimized in-baggage plan and the naive global evaluation produce the
// same results.
func TestQuickBaselineMatchesOptimizedPlan(t *testing.T) {
	text := `From s In Server
	  Join c In First(Client) On c -> s
	  Where s.bytes < 800
	  GroupBy c.procName
	  Select c.procName, SUM(s.bytes), COUNT, MAX(s.bytes)`

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Baseline setup.
		regB := tracepoint.NewRegistry()
		regB.Define("Client")
		regB.Define("Server", "bytes")
		qB, _ := query.Parse(text)
		ev, err := New(qB, regB)
		if err != nil {
			return false
		}
		for tp, probe := range ev.Probes() {
			regB.Weave(tp, probe)
		}

		// Optimized plan setup.
		regO := tracepoint.NewRegistry()
		regO.Define("Client")
		regO.Define("Server", "bytes")
		qO, _ := query.Parse(text)
		qO.Name = "q"
		p, err := plan.Compile(qO, regO, nil, plan.Optimized)
		if err != nil {
			return false
		}
		acc := advice.NewAccumulator(p.Emit.Emit)
		em := emitFunc(func(prog *advice.Program, w tuple.Tuple) { acc.Add(w) })
		for _, prog := range p.Programs {
			regO.Weave(prog.Tracepoint, &advice.Advice{Prog: prog, Emitter: em})
		}

		// Drive identical random executions through both.
		apps := []string{"appA", "appB", "appC"}
		for r := 0; r < 1+rng.Intn(6); r++ {
			app := apps[rng.Intn(len(apps))]
			ctxB := newRequest("h", app)
			ctxO := newRequest("h", app)
			if rng.Intn(4) > 0 { // sometimes skip the client tracepoint
				regB.Lookup("Client").Here(ctxB)
				regO.Lookup("Client").Here(ctxO)
			}
			for i := 0; i < rng.Intn(5); i++ {
				v := rng.Intn(1000)
				regB.Lookup("Server").Here(ctxB, v)
				regO.Lookup("Server").Here(ctxO, v)
			}
		}

		want, err := ev.Evaluate()
		if err != nil {
			return false
		}
		got := acc.Rows()
		sortRows(want)
		sortRows(got)
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

type emitFunc func(*advice.Program, tuple.Tuple)

func (f emitFunc) EmitTuple(p *advice.Program, w tuple.Tuple) { f(p, w) }

func sortRows(rows []tuple.Tuple) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if c := rows[i][k].Compare(rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func TestBaselineTemporalFilters(t *testing.T) {
	reg := tracepoint.NewRegistry()
	reg.Define("End")
	reg.Define("Evt", "v")
	ev := weaveBaseline(t, reg,
		`From e In End
		 Join m In MostRecent(Evt) On m -> e
		 Select m.v`)

	endTp := reg.Lookup("End")
	evt := reg.Lookup("Evt")
	ctx := newRequest("h", "p")
	evt.Here(ctx, 1)
	evt.Here(ctx, 2)
	evt.Here(ctx, 3)
	endTp.Here(ctx)
	rows, err := ev.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Fatalf("rows = %v, want most recent (3)", rows)
	}
}

func TestBaselineConstantSizeBaggage(t *testing.T) {
	// The baseline's selling point per §4: baggage stays constant-size no
	// matter how many events occur (only the frontier id is carried).
	reg := tracepoint.NewRegistry()
	reg.Define("End")
	reg.Define("Evt", "v")
	weaveBaseline(t, reg,
		`From e In End Join m In Evt On m -> e Select m.v`)

	evt := reg.Lookup("Evt")
	ctx := newRequest("h", "p")
	var sizes []int
	for i := 0; i < 100; i++ {
		evt.Here(ctx, i)
		sizes = append(sizes, baggage.FromContext(ctx).ByteSize())
	}
	if sizes[99] > sizes[4]+2 {
		t.Fatalf("baggage grew: %d -> %d bytes", sizes[4], sizes[99])
	}
}

// TestQuickBranchingEquivalence drives random fork/join request shapes
// through both evaluation strategies and demands identical results — the
// strongest correctness property for baggage's branch versioning plus the
// compiler's rewrites.
func TestQuickBranchingEquivalence(t *testing.T) {
	text := `From s In Server
	  Join c In First(Client) On c -> s
	  GroupBy c.procName
	  Select c.procName, COUNT, SUM(s.bytes)`

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		regB := tracepoint.NewRegistry()
		regB.Define("Client")
		regB.Define("Server", "bytes")
		qB, _ := query.Parse(text)
		ev, err := New(qB, regB)
		if err != nil {
			return false
		}
		for tp, probe := range ev.Probes() {
			regB.Weave(tp, probe)
		}

		regO := tracepoint.NewRegistry()
		regO.Define("Client")
		regO.Define("Server", "bytes")
		qO, _ := query.Parse(text)
		qO.Name = "q"
		p, err := plan.Compile(qO, regO, nil, plan.Optimized)
		if err != nil {
			return false
		}
		acc := advice.NewAccumulator(p.Emit.Emit)
		em := emitFunc(func(prog *advice.Program, w tuple.Tuple) { acc.Add(w) })
		for _, prog := range p.Programs {
			regO.Weave(prog.Tracepoint, &advice.Advice{Prog: prog, Emitter: em})
		}

		apps := []string{"appA", "appB"}
		for r := 0; r < 1+rng.Intn(4); r++ {
			app := apps[rng.Intn(len(apps))]
			ctxB := newRequest("h", app)
			ctxO := newRequest("h", app)
			regB.Lookup("Client").Here(ctxB)
			regO.Lookup("Client").Here(ctxO)

			// Fork into 2 or 3 branches; each branch crosses Server a few
			// times; then rejoin and maybe cross Server once more.
			k := 2 + rng.Intn(2)
			bagB := baggage.FromContext(ctxB)
			bagO := baggage.FromContext(ctxO)
			branchesB := make([]*baggage.Baggage, 0, k)
			branchesO := make([]*baggage.Baggage, 0, k)
			for i := 0; i < k-1; i++ {
				var lB, lO *baggage.Baggage
				lB, bagB = bagB.Split()
				lO, bagO = bagO.Split()
				branchesB = append(branchesB, lB)
				branchesO = append(branchesO, lO)
			}
			branchesB = append(branchesB, bagB)
			branchesO = append(branchesO, bagO)
			for i := range branchesB {
				n := rng.Intn(3)
				for e := 0; e < n; e++ {
					v := rng.Intn(100)
					regB.Lookup("Server").Here(baggage.NewContext(ctxB, branchesB[i]), v)
					regO.Lookup("Server").Here(baggage.NewContext(ctxO, branchesO[i]), v)
				}
			}
			joinedB, joinedO := branchesB[0], branchesO[0]
			for i := 1; i < k; i++ {
				joinedB = baggage.Join(joinedB, branchesB[i])
				joinedO = baggage.Join(joinedO, branchesO[i])
			}
			if rng.Intn(2) == 0 {
				v := rng.Intn(100)
				regB.Lookup("Server").Here(baggage.NewContext(ctxB, joinedB), v)
				regO.Lookup("Server").Here(baggage.NewContext(ctxO, joinedO), v)
			}
		}

		want, err := ev.Evaluate()
		if err != nil {
			return false
		}
		got := acc.Rows()
		sortRows(want)
		sortRows(got)
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
