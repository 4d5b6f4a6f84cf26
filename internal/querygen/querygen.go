// Package querygen generates random-but-valid differential test cases
// for the Pivot Tracing pipeline: a causal trace script (fires, splits,
// joins, process transfers over fan-out/fan-in topologies) together with
// a query over the trace's tracepoints (projections, happened-before
// joins, temporal and predicate filters, every aggregation function).
// Everything derives deterministically from one int64 seed.
//
// A case is a script, not a materialized trace: Execute interprets the
// op list against an Executor, so the exact same interpretation drives
// both the real cluster substrate (which stamps each event with the
// time and process identity it actually observed) and the abstract
// happened-before materializer that feeds the oracle. The two views
// cannot drift, because there is only one interpreter.
package querygen

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/agg"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Field is one declared export of a generated tracepoint.
type Field struct {
	Name string
	Kind tuple.Kind
}

// signatures is the schema pool. Tracepoints sharing a signature export
// identical schemas, which makes them union-compatible in a From clause.
var signatures = [][]Field{
	{{"size", tuple.KindInt}, {"cost", tuple.KindFloat}, {"tag", tuple.KindString}},
	{{"n", tuple.KindInt}, {"ok", tuple.KindBool}},
	{{"size", tuple.KindInt}, {"lat", tuple.KindFloat}},
}

// TP is one generated tracepoint definition.
type TP struct {
	Name   string
	Sig    int
	Fields []Field
}

// Event is one tracepoint firing. TP, Proc and Args are fixed at
// generation time; Time and the process identity fields are stamped by
// the executor that realizes the trace, so the oracle sees exactly the
// values the pipeline observed.
type Event struct {
	ID   int
	TP   int
	Proc int
	Args []tuple.Value

	Time     int64
	Host     string
	ProcName string
	ProcID   int64
	Stamped  bool
}

// OpKind enumerates trace-script operations.
type OpKind uint8

// Trace-script operations.
const (
	OpFire OpKind = iota
	OpSplit
	OpJoin
	OpTransfer
)

// Op is one step of the causal trace script. Branch and Other index the
// interpreter's live-branch list at the moment the op executes.
type Op struct {
	Kind   OpKind
	Delay  time.Duration // virtual-time delay before the op
	Branch int
	Other  int // OpJoin: the branch merged away (index, != Branch)
	Event  int // OpFire: index into Events
	Proc   int // OpTransfer: destination process
}

// Case is one generated differential test case.
type Case struct {
	Seed      int64
	TPs       []TP
	NumProcs  int
	Hosts     []string // host name per process
	ProcNames []string // process name per process
	Linear    bool     // no splits/joins: firing order is causal order
	Events    []Event
	Ops       []Op
	QueryText string
	// SampleRate is the request-level sampling rate the case's query
	// declares (GenerateSampled); zero for exact cases.
	SampleRate float64
}

// Executor realizes the trace script on some substrate. Branch ids are
// dense ints minted by Execute; branch 0 is the root request.
type Executor interface {
	// Fire fires event ev on branch, in process ev.Proc.
	Fire(branch int, ev *Event)
	// Split forks branch, minting child with the same causal past.
	Split(branch, child int)
	// Join merges branch src into dst; src is dead afterwards.
	Join(dst, src int)
	// Transfer moves branch across a process boundary into proc
	// (serialize, ship, deserialize).
	Transfer(branch, proc int)
	// Delay advances time; a no-op for abstract executors.
	Delay(d time.Duration)
}

// Execute interprets the case's op script against x. This is the single
// source of truth for what the script means: the cluster driver and the
// happened-before materializer both go through it.
func (c *Case) Execute(x Executor) {
	live := []int{0}
	next := 1
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Delay > 0 {
			x.Delay(op.Delay)
		}
		switch op.Kind {
		case OpFire:
			x.Fire(live[op.Branch], &c.Events[op.Event])
		case OpSplit:
			child := next
			next++
			x.Split(live[op.Branch], child)
			live = append(live, child)
		case OpJoin:
			x.Join(live[op.Branch], live[op.Other])
			live = append(live[:op.Other], live[op.Other+1:]...)
		case OpTransfer:
			x.Transfer(live[op.Branch], op.Proc)
		}
	}
}

// hbExec materializes happened-before sets by abstract interpretation:
// each branch carries the set of events in its causal past.
type hbExec struct {
	anc map[int]map[int]bool
	out []map[int]bool
}

func cloneSet(s map[int]bool) map[int]bool {
	c := make(map[int]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (x *hbExec) Fire(branch int, ev *Event) {
	x.out[ev.ID] = cloneSet(x.anc[branch])
	x.anc[branch][ev.ID] = true
}
func (x *hbExec) Split(branch, child int) { x.anc[child] = cloneSet(x.anc[branch]) }
func (x *hbExec) Join(dst, src int) {
	for k := range x.anc[src] {
		x.anc[dst][k] = true
	}
	delete(x.anc, src)
}
func (x *hbExec) Transfer(branch, proc int) {}
func (x *hbExec) Delay(d time.Duration)     {}

// HappenedBefore returns, for each event, the set of event IDs in its
// strict causal past.
func (c *Case) HappenedBefore() []map[int]bool {
	x := &hbExec{
		anc: map[int]map[int]bool{0: {}},
		out: make([]map[int]bool, len(c.Events)),
	}
	c.Execute(x)
	return x.out
}

// Define declares the case's tracepoints in reg.
func (c *Case) Define(reg *tracepoint.Registry) {
	for _, tp := range c.TPs {
		names := make([]string, len(tp.Fields))
		for i, f := range tp.Fields {
			names[i] = f.Name
		}
		reg.Define(tp.Name, names...)
	}
}

// OracleTrace materializes the case as an oracle trace. Every event must
// have been stamped by an executor first.
func (c *Case) OracleTrace() (*oracle.Trace, error) {
	hb := c.HappenedBefore()
	tr := &oracle.Trace{Events: make([]oracle.Event, len(c.Events))}
	for i := range c.Events {
		e := &c.Events[i]
		if !e.Stamped {
			return nil, fmt.Errorf("querygen: event %d was never fired by an executor", i)
		}
		tp := &c.TPs[e.TP]
		vals := map[string]tuple.Value{
			"host":       tuple.String(e.Host),
			"time":       tuple.Int(e.Time),
			"procName":   tuple.String(e.ProcName),
			"procId":     tuple.Int(e.ProcID),
			"tracepoint": tuple.String(tp.Name),
		}
		for fi, f := range tp.Fields {
			vals[f.Name] = e.Args[fi]
		}
		tr.Events[i] = oracle.Event{Tracepoint: tp.Name, Values: vals, Before: hb[i]}
	}
	return tr, nil
}

// Generate builds the case for a seed. The same seed always yields the
// same case, byte for byte.
func Generate(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{Seed: seed}

	nTP := 3 + rng.Intn(3)
	for i := 0; i < nTP; i++ {
		sig := rng.Intn(len(signatures))
		c.TPs = append(c.TPs, TP{Name: fmt.Sprintf("Gen.Tp%d", i), Sig: sig, Fields: signatures[sig]})
	}

	genProcs(rng, c)
	c.Linear = rng.Intn(2) == 0

	q, qtps := genQuery(rng, c)
	c.QueryText = q.String()
	genOps(rng, c, qtps)
	return c
}

// genProcs draws the case's process count and lays the processes out
// over hosts.
func genProcs(rng *rand.Rand, c *Case) {
	c.NumProcs = 1 + rng.Intn(3)
	nHosts := 1 + rng.Intn(c.NumProcs)
	for p := 0; p < c.NumProcs; p++ {
		c.Hosts = append(c.Hosts, fmt.Sprintf("h%d", p%nHosts))
		c.ProcNames = append(c.ProcNames, fmt.Sprintf("p%d", p))
	}
}

// The fan-in cases (GenerateBudgeted, GenerateSampled) share two
// tracepoints: a keyed source fired many times and a sink fired once.
const srcTP, sinkTP = 0, 1

// newFanInCase starts a fan-in case: the two tracepoints and the process
// layout.
func newFanInCase(rng *rand.Rand, seed int64) *Case {
	c := &Case{Seed: seed}
	c.TPs = []TP{
		{Name: "Gen.Src", Fields: []Field{{"key", tuple.KindString}, {"val", tuple.KindInt}}},
		{Name: "Gen.Sink", Fields: []Field{{"n", tuple.KindInt}}},
	}
	genProcs(rng, c)
	return c
}

// genFanInOps writes the fan-in script: many fires of the source
// tracepoint over a pool of nKeys keys, scattered across branches and
// processes, every branch folded back into one, and exactly one final sink
// fire whose causal past therefore holds every source event — and every
// eviction tombstone.
func genFanInOps(rng *rand.Rand, c *Case, nKeys int) {
	nFires := nKeys + rng.Intn(2*nKeys)
	type br struct{ proc int }
	branches := []br{{0}}
	delay := func() time.Duration {
		return time.Duration(rng.Intn(5)) * 700 * time.Microsecond
	}
	fire := func(b, tp int, args ...tuple.Value) {
		ev := Event{ID: len(c.Events), TP: tp, Proc: branches[b].proc, Args: args}
		c.Events = append(c.Events, ev)
		c.Ops = append(c.Ops, Op{Kind: OpFire, Delay: delay(), Branch: b, Event: ev.ID})
	}
	for fired := 0; fired < nFires; {
		k := rng.Intn(100)
		switch {
		case k < 15 && len(branches) < 4:
			b := rng.Intn(len(branches))
			c.Ops = append(c.Ops, Op{Kind: OpSplit, Delay: delay(), Branch: b})
			branches = append(branches, br{branches[b].proc})
		case k < 25 && len(branches) > 1:
			b := rng.Intn(len(branches))
			o := rng.Intn(len(branches))
			if o == b {
				o = (o + 1) % len(branches)
			}
			c.Ops = append(c.Ops, Op{Kind: OpJoin, Delay: delay(), Branch: b, Other: o})
			branches = append(branches[:o], branches[o+1:]...)
		case k < 45 && c.NumProcs > 1:
			b := rng.Intn(len(branches))
			p := rng.Intn(c.NumProcs)
			c.Ops = append(c.Ops, Op{Kind: OpTransfer, Delay: delay(), Branch: b, Proc: p})
			branches[b].proc = p
		default:
			b := rng.Intn(len(branches))
			fire(b, srcTP,
				tuple.String(fmt.Sprintf("k%02d", rng.Intn(nKeys))),
				tuple.Int(int64(1+rng.Intn(16))))
			fired++
		}
	}
	// Fold every branch back so the sink's causal past holds all source
	// events and all tombstones, then fire the sink exactly once.
	for len(branches) > 1 {
		c.Ops = append(c.Ops, Op{Kind: OpJoin, Delay: delay(), Branch: 0, Other: len(branches) - 1})
		branches = branches[:len(branches)-1]
	}
	if c.NumProcs > 1 && rng.Intn(2) == 0 {
		p := rng.Intn(c.NumProcs)
		c.Ops = append(c.Ops, Op{Kind: OpTransfer, Delay: delay(), Branch: 0, Proc: p})
		branches[0].proc = p
	}
	fire(0, sinkTP, tuple.Int(1))
}

// GenerateBudgeted builds a case tailored to budgeted differential
// testing: the fan-in script (genFanInOps) over a 4–12 key pool, under a
// happened-before join grouped by source key, so under a baggage budget
// the pipeline must either report a group's exact aggregate or count it
// dropped; the oracle knows the full answer either way.
func GenerateBudgeted(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	c := newFanInCase(rng, seed)
	c.QueryText = "From b In Gen.Sink Join a In Gen.Src On a -> b GroupBy a.key Select a.key, SUM(a.val)"
	genFanInOps(rng, c, 4+rng.Intn(9))
	return c
}

// sampledRates is the pool GenerateSampled draws from: rates low enough
// to exercise real suppression and weights large enough to matter.
var sampledRates = []float64{0.05, 0.1, 0.2, 0.25, 0.5}

// GenerateSampled builds a case tailored to sampled differential testing:
// the same fold-everything-into-one-sink shape as GenerateBudgeted — so
// each replay of the script is exactly one request with one sink fire
// whose causal past holds every source event — but with a query that
// declares a Sample clause and selects COUNT and SUM. Each replay is a
// fresh request, so the minted keep/suppress decision varies per run; the
// differential harness replays the script many times and checks the
// weighted aggregates against the exact oracle within binomial confidence
// bounds, and reconciles reported raw tuples + suppressed requests
// against the oracle's totals.
func GenerateSampled(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	c := newFanInCase(rng, seed)
	c.SampleRate = sampledRates[rng.Intn(len(sampledRates))]
	c.QueryText = fmt.Sprintf(
		"From b In Gen.Sink Join a In Gen.Src On a -> b GroupBy a.key Select a.key, COUNT, SUM(a.val) Sample %v",
		c.SampleRate)
	genFanInOps(rng, c, 3+rng.Intn(4))
	return c
}

// fieldInfo is one referenceable field of an alias: the default exports
// plus the alias's declared exports, with its (static) value kind.
type fieldInfo struct {
	ref    query.FieldRef
	kind   tuple.Kind
	isTime bool // high-cardinality; allowed only as an aggregate argument
}

func aliasFields(alias string, tp *TP) []fieldInfo {
	ref := func(f string) query.FieldRef { return query.FieldRef{Alias: alias, Field: f} }
	out := []fieldInfo{
		{ref: ref("host"), kind: tuple.KindString},
		{ref: ref("time"), kind: tuple.KindInt, isTime: true},
		{ref: ref("procName"), kind: tuple.KindString},
		{ref: ref("procId"), kind: tuple.KindInt},
		{ref: ref("tracepoint"), kind: tuple.KindString},
	}
	for _, f := range tp.Fields {
		out = append(out, fieldInfo{ref: ref(f.Name), kind: f.Kind})
	}
	return out
}

// genQuery builds a random valid query over the case's tracepoints and
// returns it with the indexes of the tracepoints it references.
func genQuery(rng *rand.Rand, c *Case) (*query.Query, []int) {
	q := &query.Query{}
	aliasNames := []string{"a", "b", "c"}
	used := map[int]bool{}

	fromTP := rng.Intn(len(c.TPs))
	used[fromTP] = true
	qtps := []int{fromTP}
	q.From = query.From{Alias: "a", Sources: []query.Source{{Tracepoint: c.TPs[fromTP].Name}}}
	if rng.Intn(4) == 0 {
		for _, j := range rng.Perm(len(c.TPs)) {
			if !used[j] && c.TPs[j].Sig == c.TPs[fromTP].Sig {
				q.From.Sources = append(q.From.Sources, query.Source{Tracepoint: c.TPs[j].Name})
				used[j] = true
				qtps = append(qtps, j)
				break
			}
		}
	}

	type aliasInfo struct {
		name string
		tp   int
	}
	aliases := []aliasInfo{{"a", fromTP}}
	anyTemporal := false
	nJoins := rng.Intn(3)
	for j := 0; j < nJoins; j++ {
		cand := -1
		for _, k := range rng.Perm(len(c.TPs)) {
			if !used[k] {
				cand = k
				break
			}
		}
		if cand < 0 {
			break
		}
		used[cand] = true
		alias := aliasNames[len(aliases)]
		src := query.Source{Tracepoint: c.TPs[cand].Name}
		// Temporal filters are order-sensitive, so they are only
		// generated for linear traces, where firing order is causal
		// order and thus deterministic.
		if c.Linear && rng.Intn(3) == 0 {
			switch rng.Intn(4) {
			case 0:
				src.Filter = query.FilterFirst
			case 1:
				src.Filter = query.FilterMostRecent
			case 2:
				src.Filter = query.FilterFirstN
				src.N = 1 + rng.Intn(3)
			case 3:
				src.Filter = query.FilterMostRecentN
				src.N = 1 + rng.Intn(3)
			}
			anyTemporal = true
		}
		right := aliases[rng.Intn(len(aliases))].name
		q.Joins = append(q.Joins, query.Join{Alias: alias, Source: src, Left: alias, Right: right})
		aliases = append(aliases, aliasInfo{alias, cand})
		qtps = append(qtps, cand)
	}

	// Field pools. When any join carries a temporal filter, predicates
	// stay on the From alias: pushing a predicate below a retention
	// point changes which tuples are retained, and the oracle pins the
	// placement-independent semantics.
	var all, predPool []fieldInfo
	for i, ai := range aliases {
		fs := aliasFields(ai.name, &c.TPs[ai.tp])
		all = append(all, fs...)
		if !anyTemporal || i == 0 {
			for _, f := range fs {
				if !f.isTime {
					predPool = append(predPool, f)
				}
			}
		}
	}
	var numeric, groupable []fieldInfo
	for _, f := range all {
		if f.kind == tuple.KindInt || f.kind == tuple.KindFloat {
			numeric = append(numeric, f)
		}
		if !f.isTime {
			groupable = append(groupable, f)
		}
	}
	numericPred := func(pool []fieldInfo) []fieldInfo {
		var out []fieldInfo
		for _, f := range pool {
			if !f.isTime && (f.kind == tuple.KindInt || f.kind == tuple.KindFloat) {
				out = append(out, f)
			}
		}
		return out
	}

	nWhere := rng.Intn(3)
	for w := 0; w < nWhere && len(predPool) > 0; w++ {
		q.Where = append(q.Where, genPred(rng, c, predPool, numericPred(predPool)))
	}

	switch rng.Intn(3) {
	case 0: // grouped aggregation
		ng := 1 + rng.Intn(2)
		perm := rng.Perm(len(groupable))
		for _, gi := range perm[:min(ng, len(perm))] {
			q.GroupBy = append(q.GroupBy, groupable[gi].ref)
		}
		selected := q.GroupBy
		if len(selected) == 2 && rng.Intn(3) == 0 {
			selected = selected[:1] // grouping fields need not all be selected
		}
		for _, g := range selected {
			q.Select = append(q.Select, query.SelectItem{Expr: g})
		}
		na := 1 + rng.Intn(2)
		for i := 0; i < na; i++ {
			q.Select = append(q.Select, genAggItem(rng, numeric))
		}
	case 1: // ungrouped aggregation
		na := 1 + rng.Intn(2)
		for i := 0; i < na; i++ {
			q.Select = append(q.Select, genAggItem(rng, numeric))
		}
	default: // raw projection
		ns := 1 + rng.Intn(3)
		for i := 0; i < ns; i++ {
			if rng.Intn(10) < 7 || len(numeric) == 0 {
				q.Select = append(q.Select, query.SelectItem{Expr: all[rng.Intn(len(all))].ref})
			} else {
				q.Select = append(q.Select, query.SelectItem{Expr: genComputed(rng, numeric)})
			}
		}
	}
	return q, qtps
}

// genPred builds one Where predicate over the allowed field pool.
func genPred(rng *rand.Rand, c *Case, pool, numPool []fieldInfo) query.Expr {
	cmps := []query.BinOp{query.OpEq, query.OpNe, query.OpLt, query.OpLe, query.OpGt, query.OpGe}
	f := pool[rng.Intn(len(pool))]
	switch f.kind {
	case tuple.KindString:
		op := query.OpEq
		if rng.Intn(3) == 0 {
			op = query.OpNe
		}
		return query.Binary{Op: op, L: f.ref, R: query.Literal{Value: tuple.String(stringLit(rng, c, f))}}
	case tuple.KindBool:
		return query.Binary{Op: query.OpEq, L: f.ref, R: query.Literal{Value: tuple.Bool(rng.Intn(2) == 0)}}
	default:
		op := cmps[rng.Intn(len(cmps))]
		if rng.Intn(4) == 0 && len(numPool) > 1 {
			g := numPool[rng.Intn(len(numPool))]
			return query.Binary{Op: op, L: f.ref, R: g.ref}
		}
		var lit tuple.Value
		if f.kind == tuple.KindFloat {
			lit = tuple.Float(float64(rng.Intn(13)) * 0.25)
		} else {
			lit = tuple.Int(int64(rng.Intn(9)))
		}
		return query.Binary{Op: op, L: f.ref, R: query.Literal{Value: lit}}
	}
}

// stringLit picks a literal that has a real chance of matching f.
func stringLit(rng *rand.Rand, c *Case, f fieldInfo) string {
	switch f.ref.Field {
	case "host":
		return c.Hosts[rng.Intn(len(c.Hosts))]
	case "procName":
		return c.ProcNames[rng.Intn(len(c.ProcNames))]
	case "tracepoint":
		return c.TPs[rng.Intn(len(c.TPs))].Name
	default:
		return fmt.Sprintf("s%d", rng.Intn(4))
	}
}

// genAggItem builds one aggregated Select item. Arguments keep a static
// value kind (no division, whose int→float promotion is per-value), so
// MIN/MAX ties cannot resolve to different kinds on different merge
// orders.
func genAggItem(rng *rand.Rand, numeric []fieldInfo) query.SelectItem {
	fns := []agg.Func{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Average}
	fn := fns[rng.Intn(len(fns))]
	if fn == agg.Count && rng.Intn(2) == 0 {
		return query.SelectItem{Agg: fn, HasAgg: true} // bare COUNT
	}
	if len(numeric) == 0 {
		return query.SelectItem{Agg: agg.Count, HasAgg: true}
	}
	var e query.Expr
	if rng.Intn(4) == 0 {
		e = genComputed(rng, numeric)
	} else {
		e = numeric[rng.Intn(len(numeric))].ref
	}
	return query.SelectItem{Agg: fn, HasAgg: true, Expr: e}
}

// genComputed builds a small arithmetic expression over numeric fields
// (+, -, * only: see genAggItem).
func genComputed(rng *rand.Rand, numeric []fieldInfo) query.Expr {
	ops := []query.BinOp{query.OpAdd, query.OpSub, query.OpMul}
	l := numeric[rng.Intn(len(numeric))].ref
	var r query.Expr
	if rng.Intn(2) == 0 {
		r = numeric[rng.Intn(len(numeric))].ref
	} else {
		r = query.Literal{Value: tuple.Int(int64(1 + rng.Intn(4)))}
	}
	return query.Binary{Op: ops[rng.Intn(len(ops))], L: l, R: r}
}

// genOps builds the trace script, mirroring exactly the live-branch
// bookkeeping Execute performs so that every Fire op's pre-assigned
// process matches what the executor will see.
func genOps(rng *rand.Rand, c *Case, qtps []int) {
	nOps := 12 + rng.Intn(28)
	type br struct{ proc int }
	branches := []br{{0}}
	delay := func() time.Duration {
		return time.Duration(rng.Intn(5)) * 700 * time.Microsecond
	}
	for len(c.Ops) < nOps {
		k := rng.Intn(100)
		switch {
		case !c.Linear && k < 12 && len(branches) < 4:
			b := rng.Intn(len(branches))
			c.Ops = append(c.Ops, Op{Kind: OpSplit, Delay: delay(), Branch: b})
			branches = append(branches, br{branches[b].proc})
		case !c.Linear && k < 22 && len(branches) > 1:
			b := rng.Intn(len(branches))
			o := rng.Intn(len(branches))
			if o == b {
				o = (o + 1) % len(branches)
			}
			c.Ops = append(c.Ops, Op{Kind: OpJoin, Delay: delay(), Branch: b, Other: o})
			branches = append(branches[:o], branches[o+1:]...)
		case k < 40 && c.NumProcs > 1:
			b := rng.Intn(len(branches))
			p := rng.Intn(c.NumProcs)
			c.Ops = append(c.Ops, Op{Kind: OpTransfer, Delay: delay(), Branch: b, Proc: p})
			branches[b].proc = p
		default:
			b := rng.Intn(len(branches))
			var tp int
			if rng.Intn(100) < 75 {
				tp = qtps[rng.Intn(len(qtps))]
			} else {
				tp = rng.Intn(len(c.TPs))
			}
			ev := Event{ID: len(c.Events), TP: tp, Proc: branches[b].proc, Args: genArgs(rng, &c.TPs[tp])}
			c.Events = append(c.Events, ev)
			c.Ops = append(c.Ops, Op{Kind: OpFire, Delay: delay(), Branch: b, Event: ev.ID})
		}
	}
}

// genArgs picks export values from small domains, so groupings collide
// and predicates have real selectivity. Floats are exact multiples of
// 0.25, so sums are exact in float64 regardless of summation order and
// byte-equality across evaluation paths is well-defined.
func genArgs(rng *rand.Rand, tp *TP) []tuple.Value {
	out := make([]tuple.Value, len(tp.Fields))
	for i, f := range tp.Fields {
		switch f.Kind {
		case tuple.KindInt:
			out[i] = tuple.Int(int64(rng.Intn(8)))
		case tuple.KindFloat:
			out[i] = tuple.Float(float64(rng.Intn(13)) * 0.25)
		case tuple.KindString:
			out[i] = tuple.String(fmt.Sprintf("s%d", rng.Intn(4)))
		case tuple.KindBool:
			out[i] = tuple.Bool(rng.Intn(2) == 0)
		default:
			out[i] = tuple.Null
		}
	}
	return out
}
