// Package plan compiles Pivot Tracing queries to advice programs and
// implements the paper's query optimizations (§4, Table 3): projection,
// selection, and aggregation are pushed as close as possible to source
// tracepoints, minimizing the number of tuples packed into baggage and
// emitted for global aggregation.
//
// Compilation follows §3: one advice program is instantiated per source;
// joined sources get a Pack of exactly the variables later advice unpacks;
// Where clauses become Filter operations at the deepest tracepoint where
// all referenced variables are available (selection push-down); and
// aggregations whose argument originates at a joined source are evaluated
// at pack time as an AGG set, with the final Emit applying the
// aggregator's combiner (the Combine rewrite of Table 3).
package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/advice"
	"repro/internal/agg"
	"repro/internal/query"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Options controls compilation.
type Options struct {
	// Optimize enables the Table 3 rewrites. When false, advice observes
	// and packs every exported variable and evaluates all predicates at
	// the final tracepoint — the paper's unoptimized (but still in-baggage)
	// evaluation strategy, kept for ablation benchmarks.
	Optimize bool
	// SampleRate, when in (0, 1), samples the query at request
	// granularity: the originating agent mints one keep/suppress decision
	// per request (carried in the reserved !pt.sample baggage slot), so a
	// happened-before join never pairs a sampled tuple with an unsampled
	// ancestor. Kept tuples carry weight 1/SampleRate; COUNT and SUM
	// become unbiased Horvitz-Thompson estimates and results are flagged
	// approximate. Out of range (including 1 from a query's own SAMPLE 1
	// clause, NaN, ≤ 0, > 1) is clamped at decode; a query-level SAMPLE
	// clause supplies the rate when this field is zero.
	SampleRate float64
	// Safety bounds the compiled programs' runtime behavior: baggage
	// budget, panic circuit breaker, and per-fire cost ceiling. The zero
	// value enables every default limit (see advice.Safety).
	Safety advice.Safety
	// Limits bounds agent-side accumulator memory for the query (group
	// cardinality and raw-row count; zero value = defaults, see
	// advice.Limits).
	Limits advice.Limits
	// Lease is the query's install TTL: agents uninstall the query if the
	// frontend stops renewing for this long. Zero selects the default
	// lease; negative installs the query without a lease (immortal).
	Lease time.Duration
}

// Optimized is the default compilation mode.
var Optimized = Options{Optimize: true}

// Plan is a compiled query: one advice program per (alias, tracepoint).
type Plan struct {
	Query    *query.Query
	Analysis *query.Analysis
	Programs []*advice.Program
	// Emit is the program holding the query's Emit operation (one of
	// Programs; for union From clauses, the program of the first source).
	Emit *advice.Program
	// Schema is the output schema of the query's result rows.
	Schema tuple.Schema
}

// Explain renders the plan in the paper's advice notation: one block per
// woven tracepoint, upstream advice first.
func (p *Plan) Explain() string { return p.explain((*advice.Program).String) }

// ExplainAnalyze renders the compiled advice like Explain, but with each
// operator annotated by its live execution counters (advice.Cost) — the
// per-operator half of EXPLAIN ANALYZE. Counters are shared by every woven
// copy of a program within this OS process; in a TCP-distributed deployment
// the agent-shipped ExplainStats carry each worker's counters instead.
func (p *Plan) ExplainAnalyze() string { return p.explain((*advice.Program).AnnotatedString) }

// explain writes one block per program, each rendered by render.
func (p *Plan) explain(render func(*advice.Program) string) string {
	var b strings.Builder
	for i, prog := range p.Programs {
		if i > 0 {
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "A%d at %s:\n%s", i+1, prog.Tracepoint, render(prog))
	}
	return b.String()
}

// Compile resolves q against the registry and named queries and produces
// the advice plan.
func Compile(q *query.Query, reg *tracepoint.Registry, named map[string]*query.Query, opts Options) (*Plan, error) {
	a, err := query.Analyze(q, reg, named)
	if err != nil {
		return nil, err
	}
	rootID := q.Name
	if rootID == "" {
		rootID = "q"
	}
	p := &Plan{Query: q, Analysis: a, Schema: query.OutputSchema(q)}
	c := &compiler{reg: reg, named: named, opts: opts, rootID: rootID}
	if err := c.compileQuery(p, a, rootID, nil); err != nil {
		return nil, err
	}
	// Request-level sampling applies to every program of the query — joined
	// sources included — so the per-request decision suppresses or keeps
	// the whole causal slice atomically.
	rate := advice.ClampRate(opts.SampleRate)
	if rate == 0 {
		rate = advice.ClampRate(q.Sample)
	}
	if rate > 0 {
		for _, prog := range p.Programs {
			prog.SampleRate = rate
		}
	}
	return p, nil
}

type compiler struct {
	reg    *tracepoint.Registry
	named  map[string]*query.Query
	opts   Options
	rootID string
}

// packField describes one column of a packed tuple.
type packField struct {
	name      string         // qualified name, e.g. "st.host" or "d.SUM(bytes)"
	ref       query.FieldRef // originating reference (raw fields)
	isPartial bool           // pushed-down partial aggregate
	selIdx    int            // owning Select index, when isPartial
	fn        agg.Func       // aggregator, when isPartial
}

// aliasNode is per-alias compilation state.
type aliasNode struct {
	name        string
	tracepoints []string     // tracepoint names (>1 for a union From)
	sub         *query.Query // non-nil for subquery sources
	filter      query.TempFilter
	n           int
	downstream  string // alias whose advice unpacks this alias's slot ("" = From)
	upstreams   []string
	depth       int

	slot       string
	packFields []packField
}

// packTarget describes where a subquery's output goes instead of an Emit.
type packTarget struct {
	slot   string
	filter query.TempFilter
	n      int
	prefix string // qualified-name prefix for the output columns (the outer alias)
}

// queryCompiler carries the state for compiling one (sub)query.
type queryCompiler struct {
	c         *compiler
	p         *Plan
	a         *query.Analysis
	q         *query.Query
	qid       string
	nodes     map[string]*aliasNode
	order     []string // aliases sorted by depth ascending (From first)
	filtersAt map[string][]query.Expr
	pushed    map[int]string // Select index -> alias with pack-time aggregation
	refList   []query.FieldRef
	sinkDepth map[query.FieldRef]int
}

// compileQuery compiles the analyzed query a into p. If target is non-nil
// the query is a join source: its From advice packs the query's output
// columns to target.slot instead of emitting.
func (c *compiler) compileQuery(p *Plan, a *query.Analysis, qid string, target *packTarget) error {
	qc := &queryCompiler{
		c: c, p: p, a: a, q: a.Query, qid: qid,
		filtersAt: map[string][]query.Expr{},
		pushed:    map[int]string{},
		sinkDepth: map[query.FieldRef]int{},
	}
	if err := qc.buildNodes(); err != nil {
		return err
	}
	qc.placeFilters()
	if target == nil {
		qc.decidePushdown()
	}
	qc.collectRefs()

	// Compile upstream-first (deepest aliases first).
	for i := len(qc.order) - 1; i > 0; i-- {
		node := qc.nodes[qc.order[i]]
		if node.sub != nil {
			if err := qc.compileSubquery(node); err != nil {
				return err
			}
			continue
		}
		if err := qc.compileJoinAlias(node); err != nil {
			return err
		}
	}
	return qc.compileFrom(target)
}

// buildNodes constructs alias nodes and the depth ordering.
func (qc *queryCompiler) buildNodes() error {
	q := qc.q
	qc.nodes = make(map[string]*aliasNode)
	from := &aliasNode{name: q.From.Alias}
	for _, src := range q.From.Sources {
		from.tracepoints = append(from.tracepoints, src.Tracepoint)
	}
	qc.nodes[q.From.Alias] = from

	for _, j := range q.Joins {
		node := &aliasNode{
			name:       j.Alias,
			filter:     j.Source.Filter,
			n:          j.Source.N,
			downstream: j.Right,
			slot:       qc.qid + "." + j.Alias,
		}
		if j.Source.IsSubquery() {
			node.sub = qc.a.Subqueries[j.Alias]
		} else {
			node.tracepoints = []string{j.Source.Tracepoint}
		}
		qc.nodes[j.Alias] = node
	}
	var depthOf func(name string, hops int) (int, error)
	depthOf = func(name string, hops int) (int, error) {
		if hops > len(qc.nodes)+1 {
			return 0, fmt.Errorf("plan: join cycle involving %q", name)
		}
		node := qc.nodes[name]
		if node.downstream == "" {
			return 0, nil
		}
		d, err := depthOf(node.downstream, hops+1)
		if err != nil {
			return 0, err
		}
		return d + 1, nil
	}
	qc.order = []string{q.From.Alias}
	for _, j := range q.Joins {
		d, err := depthOf(j.Alias, 0)
		if err != nil {
			return err
		}
		qc.nodes[j.Alias].depth = d
		qc.nodes[j.Right].upstreams = append(qc.nodes[j.Right].upstreams, j.Alias)
		qc.order = append(qc.order, j.Alias)
	}
	// Insertion sort by depth ascending, stable on join order.
	for i := 2; i < len(qc.order); i++ {
		for k := i; k > 1 && qc.nodes[qc.order[k]].depth < qc.nodes[qc.order[k-1]].depth; k-- {
			qc.order[k], qc.order[k-1] = qc.order[k-1], qc.order[k]
		}
	}
	return nil
}

// avail returns the aliases whose fields are present in the working tuple
// at the given alias: itself plus transitively unpacked upstreams.
func (qc *queryCompiler) avail(name string) map[string]bool {
	out := map[string]bool{name: true}
	var walk func(n string)
	walk = func(n string) {
		for _, u := range qc.nodes[n].upstreams {
			out[u] = true
			walk(u)
		}
	}
	walk(name)
	return out
}

// placeFilters assigns each Where predicate to the deepest alias at which
// all its references are available (σ push-down of Table 3).
func (qc *queryCompiler) placeFilters() {
	for _, w := range qc.q.Where {
		target := qc.q.From.Alias
		if qc.c.opts.Optimize {
			refs := query.FieldRefs(w)
			bestDepth := -1
			for _, name := range qc.order {
				av := qc.avail(name)
				ok := true
				for _, r := range refs {
					if !av[r.Alias] {
						ok = false
						break
					}
				}
				if ok && qc.nodes[name].depth > bestDepth {
					target = name
					bestDepth = qc.nodes[name].depth
				}
			}
		}
		qc.filtersAt[target] = append(qc.filtersAt[target], w)
	}
}

// decidePushdown marks Select aggregates that can be evaluated at pack time
// (A/GA push-down of Table 3): plain field arguments originating at a
// tracepoint alias joined directly to the From alias with no temporal
// filter. AVERAGE is excluded — its partials do not merge by value.
func (qc *queryCompiler) decidePushdown() {
	if !qc.c.opts.Optimize {
		return
	}
	for i, si := range qc.q.Select {
		if !si.HasAgg || si.Expr == nil || si.Agg == agg.Average {
			continue
		}
		f, ok := si.Expr.(query.FieldRef)
		if !ok || f.Field == "" {
			continue
		}
		node, ok := qc.nodes[f.Alias]
		if !ok || node.sub != nil || node.downstream != qc.q.From.Alias || node.filter != query.NoFilter {
			continue
		}
		qc.pushed[i] = f.Alias
	}
	// Pushing an aggregate replaces the alias's packed tuples with merged
	// partials, collapsing the alias's tuple multiplicity at the emit
	// point. That is only sound if the whole aggregation moves together:
	// any aggregate left behind (bare COUNT, AVERAGE, computed arguments,
	// From-alias arguments) would see the collapsed multiplicity, and two
	// aggregates pushed onto different aliases would each collapse the
	// other's cartesian multiplier. Unless every aggregated output pushes
	// onto one and the same alias, push nothing.
	alias := ""
	for i, si := range qc.q.Select {
		if !si.HasAgg {
			continue
		}
		a, ok := qc.pushed[i]
		if !ok || (alias != "" && a != alias) {
			clear(qc.pushed)
			return
		}
		alias = a
	}
}

// canon canonicalizes a bare subquery reference to its single output column.
func (qc *queryCompiler) canon(f query.FieldRef) query.FieldRef {
	if f.Field != "" {
		return f
	}
	if sub, ok := qc.a.Subqueries[f.Alias]; ok {
		return query.FieldRef{Alias: f.Alias, Field: query.OutputSchema(sub)[0]}
	}
	return f
}

// addRef records one usage of a field reference with the given sink depth.
func (qc *queryCompiler) addRef(f query.FieldRef, depth int) {
	f = qc.canon(f)
	d, ok := qc.sinkDepth[f]
	if !ok {
		qc.refList = append(qc.refList, f)
		qc.sinkDepth[f] = depth
		return
	}
	if depth < d {
		qc.sinkDepth[f] = depth
	}
}

// collectRefs builds the deterministic reference list with minimum sink
// depths. A reference must be packed at every alias strictly deeper than
// its shallowest sink (projection push-down: everything else is dropped).
func (qc *queryCompiler) collectRefs() {
	if !qc.c.opts.Optimize {
		// Unoptimized: every exported variable of every alias is "needed
		// at the From alias" (sink depth 0), so everything is observed
		// and packed all the way down the chain.
		for _, name := range qc.order {
			node := qc.nodes[name]
			if node.sub != nil {
				for _, col := range query.OutputSchema(node.sub) {
					qc.addRef(query.FieldRef{Alias: name, Field: col}, 0)
				}
				continue
			}
			if tp := qc.c.reg.Lookup(node.tracepoints[0]); tp != nil {
				for _, f := range tp.Schema() {
					qc.addRef(query.FieldRef{Alias: name, Field: f}, 0)
				}
			}
		}
		return
	}
	for _, g := range qc.q.GroupBy {
		qc.addRef(g, 0)
	}
	for i, si := range qc.q.Select {
		if si.Expr == nil {
			continue
		}
		if _, isPushed := qc.pushed[i]; isPushed {
			continue
		}
		for _, f := range query.FieldRefs(si.Expr) {
			qc.addRef(f, 0)
		}
	}
	for target, ws := range qc.filtersAt {
		depth := qc.nodes[target].depth
		for _, w := range ws {
			for _, f := range query.FieldRefs(w) {
				qc.addRef(f, depth)
			}
		}
	}
}
