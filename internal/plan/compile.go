package plan

import (
	"fmt"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/tuple"
)

// layout describes the working tuple at one alias's advice: the qualified
// field names, the reference-to-position bindings used by filters and
// computes, and the positions of pushed-down partial aggregates.
type layout struct {
	schema     tuple.Schema
	bindings   map[query.FieldRef]int
	partialPos map[int]int // Select index -> working-tuple position
	observed   []query.FieldRef
}

func qualified(r query.FieldRef) string { return r.Alias + "." + r.Field }

// observedRefs returns the references originating at this alias, in
// reference-list order, plus any pushed-aggregate arguments observed here.
func (qc *queryCompiler) observedRefs(node *aliasNode) []query.FieldRef {
	var out []query.FieldRef
	have := map[query.FieldRef]bool{}
	for _, r := range qc.refList {
		if r.Alias == node.name {
			out = append(out, r)
			have[r] = true
		}
	}
	for i := 0; i < len(qc.q.Select); i++ {
		if qc.pushed[i] != node.name {
			continue
		}
		arg := qc.q.Select[i].Expr.(query.FieldRef)
		if !have[arg] {
			out = append(out, arg)
			have[arg] = true
		}
	}
	return out
}

// buildLayout computes the working-tuple layout at node's advice.
func (qc *queryCompiler) buildLayout(node *aliasNode) *layout {
	l := &layout{
		bindings:   map[query.FieldRef]int{},
		partialPos: map[int]int{},
	}
	l.observed = qc.observedRefs(node)
	for _, r := range l.observed {
		l.bindings[r] = len(l.schema)
		l.schema = append(l.schema, qualified(r))
	}
	for _, uname := range node.upstreams {
		u := qc.nodes[uname]
		for _, pf := range u.packFields {
			pos := len(l.schema)
			l.schema = append(l.schema, pf.name)
			if pf.isPartial {
				l.partialPos[pf.selIdx] = pos
				continue
			}
			l.bindings[pf.ref] = pos
			// Single-column subqueries are also referenceable by their
			// bare alias (Q9's AVERAGE(latencyMeasurement)).
			if sub, ok := qc.a.Subqueries[pf.ref.Alias]; ok && len(query.OutputSchema(sub)) == 1 {
				l.bindings[query.FieldRef{Alias: pf.ref.Alias}] = pos
			}
		}
	}
	return l
}

// carryFields computes the pack columns for a join alias: every reference
// available here that some strictly-shallower alias still needs, plus the
// partial aggregates pushed to this alias.
func (qc *queryCompiler) carryFields(node *aliasNode) []packField {
	av := qc.avail(node.name)
	var pfs []packField
	for _, r := range qc.refList {
		if av[r.Alias] && qc.sinkDepth[r] < node.depth {
			pfs = append(pfs, packField{name: qualified(r), ref: r})
		}
	}
	for i := 0; i < len(qc.q.Select); i++ {
		if qc.pushed[i] != node.name {
			continue
		}
		si := qc.q.Select[i]
		arg := si.Expr.(query.FieldRef)
		pfs = append(pfs, packField{
			name:      fmt.Sprintf("%s.%s(%s)", node.name, si.Agg, arg.Field),
			ref:       arg,
			isPartial: true,
			selIdx:    i,
			fn:        si.Agg,
		})
	}
	return pfs
}

// setKind maps a join's temporal filter to the baggage retention kind.
func setKind(f query.TempFilter) baggage.SetKind {
	switch f {
	case query.FilterFirst:
		return baggage.First
	case query.FilterFirstN:
		return baggage.FirstN
	case query.FilterMostRecent:
		return baggage.Recent
	case query.FilterMostRecentN:
		return baggage.RecentN
	default:
		return baggage.All
	}
}

// buildPack constructs the PackOp for a join alias from its pack fields.
func buildPack(node *aliasNode, l *layout) *advice.PackOp {
	spec := baggage.SetSpec{Kind: setKind(node.filter), N: node.n}
	op := &advice.PackOp{Slot: node.slot}
	raws := 0
	hasPartial := false
	for _, pf := range node.packFields {
		spec.Fields = append(spec.Fields, pf.name)
		op.Source = append(op.Source, l.bindings[pf.ref])
		if pf.isPartial {
			hasPartial = true
		} else {
			raws++
		}
	}
	if hasPartial {
		spec.Kind = baggage.Agg
		spec.N = 0
		for i := 0; i < raws; i++ {
			spec.GroupBy = append(spec.GroupBy, i)
		}
		k := raws
		for _, pf := range node.packFields {
			if pf.isPartial {
				spec.Aggs = append(spec.Aggs, baggage.AggField{Pos: k, Fn: pf.fn})
				k++
			}
		}
	}
	op.Spec = spec
	return op
}

// newProgram builds the common Observe/Unpack/Filter scaffolding of the
// advice at node for the given tracepoint.
func (qc *queryCompiler) newProgram(node *aliasNode, tpName string, l *layout) (*advice.Program, error) {
	tp := qc.c.reg.Lookup(tpName)
	if tp == nil {
		return nil, fmt.Errorf("plan: unknown tracepoint %q", tpName)
	}
	prog := &advice.Program{
		QueryID:    qc.c.rootID,
		Tracepoint: tpName,
		Safety:     qc.c.opts.Safety,
	}
	for _, r := range l.observed {
		pos := tp.Schema().Index(r.Field)
		if pos < 0 {
			return nil, fmt.Errorf("plan: %s does not export %q", tpName, r.Field)
		}
		prog.Observe = append(prog.Observe, pos)
		prog.ObserveFields = append(prog.ObserveFields, qualified(r))
	}
	for _, uname := range node.upstreams {
		u := qc.nodes[uname]
		var fields tuple.Schema
		for _, pf := range u.packFields {
			fields = append(fields, pf.name)
		}
		prog.Unpacks = append(prog.Unpacks, advice.UnpackOp{Slot: u.slot, Fields: fields})
	}
	for _, w := range qc.filtersAt[node.name] {
		prog.Filters = append(prog.Filters, advice.BindExpr(w, l.bindings))
	}
	return prog, nil
}

// compileJoinAlias emits the advice program for one joined tracepoint
// alias: observe, unpack upstream slots, filter, pack onward.
func (qc *queryCompiler) compileJoinAlias(node *aliasNode) error {
	l := qc.buildLayout(node)
	node.packFields = qc.carryFields(node)
	prog, err := qc.newProgram(node, node.tracepoints[0], l)
	if err != nil {
		return err
	}
	prog.Pack = buildPack(node, l)
	qc.p.Programs = append(qc.p.Programs, prog)
	return nil
}

// compileSubquery inline-compiles a named query used as a join source: the
// subquery's own advice chain is generated with this query's slot as the
// pack target.
func (qc *queryCompiler) compileSubquery(node *aliasNode) error {
	subA, err := query.Analyze(node.sub, qc.c.reg, qc.c.named)
	if err != nil {
		return fmt.Errorf("plan: subquery %s: %w", node.name, err)
	}
	if len(node.sub.GroupBy) > 0 {
		return fmt.Errorf("plan: subquery %q must not use GroupBy", node.sub.Name)
	}
	for _, si := range node.sub.Select {
		if si.HasAgg {
			return fmt.Errorf("plan: subquery %q must not aggregate", node.sub.Name)
		}
	}
	target := &packTarget{slot: node.slot, filter: node.filter, n: node.n, prefix: node.name}
	if err := qc.c.compileQuery(qc.p, subA, qc.qid+"."+node.name, target); err != nil {
		return err
	}
	for _, col := range query.OutputSchema(node.sub) {
		node.packFields = append(node.packFields, packField{
			name: node.name + "." + col,
			ref:  query.FieldRef{Alias: node.name, Field: col},
		})
	}
	return nil
}

// compileFrom emits the program(s) for the From alias: the Emit operation
// for a top-level query, or the output Pack for a subquery.
func (qc *queryCompiler) compileFrom(target *packTarget) error {
	node := qc.nodes[qc.q.From.Alias]
	l := qc.buildLayout(node)

	// Column positions per Select item; computed expressions append
	// columns to the working tuple.
	var computes []advice.Expr
	colPos := make([]int, len(qc.q.Select))
	for i, si := range qc.q.Select {
		switch {
		case qc.pushed[i] != "":
			colPos[i] = l.partialPos[i]
		case si.HasAgg && si.Expr == nil: // bare COUNT
			colPos[i] = -1
		default:
			if f, ok := si.Expr.(query.FieldRef); ok {
				colPos[i] = l.bindings[qc.canon(f)]
				continue
			}
			colPos[i] = len(l.schema) + len(computes)
			computes = append(computes, advice.BindExpr(si.Expr, l.bindings))
		}
	}

	build := func(tpName string) (*advice.Program, error) {
		prog, err := qc.newProgram(node, tpName, l)
		if err != nil {
			return nil, err
		}
		prog.Computes = computes
		if target != nil {
			// Subquery: pack the output columns to the outer slot.
			spec := baggage.SetSpec{Kind: setKind(target.filter), N: target.n}
			op := &advice.PackOp{Slot: target.slot}
			for i, col := range query.OutputSchema(qc.q) {
				spec.Fields = append(spec.Fields, target.prefix+"."+col)
				op.Source = append(op.Source, colPos[i])
			}
			op.Spec = spec
			prog.Pack = op
			return prog, nil
		}
		emit := &advice.EmitOp{Schema: qc.p.Schema}
		hasAgg := false
		for i, si := range qc.q.Select {
			col := advice.EmitCol{Pos: colPos[i]}
			if si.HasAgg {
				hasAgg = true
				col.IsAgg = true
				col.Fn = si.Agg
				if qc.pushed[i] != "" {
					col.Fn = si.Agg.Combiner()
				}
			}
			emit.Cols = append(emit.Cols, col)
		}
		for _, g := range qc.q.GroupBy {
			emit.GroupBy = append(emit.GroupBy, l.bindings[qc.canon(g)])
		}
		emit.Raw = !hasAgg && len(qc.q.GroupBy) == 0
		prog.Emit = emit
		return prog, nil
	}

	for i, tpName := range node.tracepoints {
		prog, err := build(tpName)
		if err != nil {
			return err
		}
		qc.p.Programs = append(qc.p.Programs, prog)
		if target == nil && i == 0 {
			qc.p.Emit = prog
		}
	}
	return nil
}
