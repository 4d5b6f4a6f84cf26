package query

import (
	"fmt"

	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Analysis is the result of semantically checking a query: every alias is
// resolved to a source schema, subquery references are identified, and the
// query is known to be well-formed.
type Analysis struct {
	Query *Query
	// Schemas maps each alias to the schema its field references resolve
	// against: the tracepoint's exported schema, or a subquery's output
	// schema.
	Schemas map[string]tuple.Schema
	// Subqueries maps a join alias to the named query it references.
	Subqueries map[string]*Query
}

// OutputSchema returns the field names of a query's result tuples. Plain
// field references keep their field name; aggregates and computed
// expressions get positional names that include the aggregator where
// applicable (e.g. "SUM(delta)").
func OutputSchema(q *Query) tuple.Schema {
	out := make(tuple.Schema, len(q.Select))
	for i, si := range q.Select {
		switch {
		case !si.HasAgg:
			if f, ok := si.Expr.(FieldRef); ok && f.Field != "" {
				out[i] = f.Field
			} else {
				out[i] = fmt.Sprintf("_%d", i+1)
			}
		case si.Expr == nil:
			out[i] = si.Agg.String()
		default:
			if f, ok := si.Expr.(FieldRef); ok && f.Field != "" {
				out[i] = fmt.Sprintf("%s(%s)", si.Agg, f.Field)
			} else {
				out[i] = fmt.Sprintf("%s(_%d)", si.Agg, i+1)
			}
		}
	}
	return out
}

// Analyze checks q against the tracepoint registry and the set of
// installed named queries, resolving sources and validating every field
// reference. On success the query's sources are updated in place (names
// matching installed queries become subquery references).
func Analyze(q *Query, reg *tracepoint.Registry, named map[string]*Query) (*Analysis, error) {
	a := &Analysis{
		Query:      q,
		Schemas:    make(map[string]tuple.Schema),
		Subqueries: make(map[string]*Query),
	}

	// Resolve the From sources: tracepoints only, and for unions the
	// aliased schema is the intersection ordering of the first source
	// (all sources must export identical schemas for simplicity).
	if len(q.From.Sources) == 0 {
		return nil, fmt.Errorf("query: From clause has no sources")
	}
	aliases := map[string]bool{}
	var fromSchema tuple.Schema
	for i := range q.From.Sources {
		src := &q.From.Sources[i]
		if src.Filter != NoFilter {
			return nil, fmt.Errorf("query: temporal filter %s is only valid on joined sources", src.Filter)
		}
		if _, ok := named[src.Tracepoint]; ok {
			return nil, fmt.Errorf("query: From source %q is a query; only tracepoints can be primary sources", src.Tracepoint)
		}
		tp := reg.Lookup(src.Tracepoint)
		if tp == nil {
			return nil, fmt.Errorf("query: unknown tracepoint %q", src.Tracepoint)
		}
		if fromSchema == nil {
			fromSchema = tp.Schema()
		} else if !fromSchema.Equal(tp.Schema()) {
			return nil, fmt.Errorf("query: union sources %q and %q export different variables",
				q.From.Sources[0].Tracepoint, src.Tracepoint)
		}
	}
	aliases[q.From.Alias] = true
	a.Schemas[q.From.Alias] = fromSchema

	// Resolve join sources and the happened-before relation endpoints.
	for i := range q.Joins {
		j := &q.Joins[i]
		if aliases[j.Alias] {
			return nil, fmt.Errorf("query: duplicate alias %q", j.Alias)
		}
		src := &j.Source
		if src.Subquery != "" {
			// Already resolved by a prior analysis of the same AST.
			sub, ok := named[src.Subquery]
			if !ok {
				return nil, fmt.Errorf("query: unknown query %q", src.Subquery)
			}
			a.Subqueries[j.Alias] = sub
			a.Schemas[j.Alias] = OutputSchema(sub)
		} else if sub, ok := named[src.Tracepoint]; ok && src.Tracepoint != "" {
			src.Subquery = src.Tracepoint
			src.Tracepoint = ""
			a.Subqueries[j.Alias] = sub
			a.Schemas[j.Alias] = OutputSchema(sub)
		} else {
			tp := reg.Lookup(src.Tracepoint)
			if tp == nil {
				return nil, fmt.Errorf("query: unknown tracepoint %q", src.Tracepoint)
			}
			a.Schemas[j.Alias] = tp.Schema()
		}

		// The joined source must causally precede: Left is the new alias.
		if j.Left != j.Alias {
			if j.Right == j.Alias {
				return nil, fmt.Errorf(
					"query: join %q must causally precede the joined-to event; write On %s -> %s",
					j.Alias, j.Alias, j.Left)
			}
			return nil, fmt.Errorf("query: join condition does not mention alias %q", j.Alias)
		}
		// Right must be an already-bound alias; "end" refers to the
		// query's primary (From) event, as in the paper's Q9.
		if !aliases[j.Right] {
			if j.Right == "end" {
				j.Right = q.From.Alias
			} else {
				return nil, fmt.Errorf("query: join references unknown alias %q", j.Right)
			}
		}
		aliases[j.Alias] = true
	}

	// Validate all field references.
	check := func(e Expr) error {
		for _, f := range FieldRefs(e) {
			if err := a.checkRef(f); err != nil {
				return err
			}
		}
		return nil
	}
	for _, w := range q.Where {
		if err := check(w); err != nil {
			return nil, err
		}
	}
	for _, g := range q.GroupBy {
		if err := a.checkRef(g); err != nil {
			return nil, err
		}
	}
	hasAgg := false
	for _, si := range q.Select {
		if si.HasAgg {
			hasAgg = true
		}
		if si.Expr != nil {
			if err := check(si.Expr); err != nil {
				return nil, err
			}
		}
	}

	// With aggregation (or grouping), every non-aggregated output must be
	// a grouping field.
	if hasAgg || len(q.GroupBy) > 0 {
		inGroup := map[FieldRef]bool{}
		for _, g := range q.GroupBy {
			inGroup[g] = true
		}
		for _, si := range q.Select {
			if si.HasAgg {
				continue
			}
			f, ok := si.Expr.(FieldRef)
			if !ok || !inGroup[f] {
				return nil, fmt.Errorf("query: non-aggregated output %s must be a GroupBy field", si)
			}
		}
	}
	return a, nil
}

// checkRef validates one field reference against the resolved schemas.
func (a *Analysis) checkRef(f FieldRef) error {
	schema, ok := a.Schemas[f.Alias]
	if !ok {
		return fmt.Errorf("query: reference to unknown alias %q", f.Alias)
	}
	if f.Field == "" {
		// Bare alias: only valid for single-column subquery outputs.
		if _, isSub := a.Subqueries[f.Alias]; isSub && len(schema) == 1 {
			return nil
		}
		return fmt.Errorf("query: bare reference %q requires a single-column subquery source", f.Alias)
	}
	if schema.Index(f.Field) < 0 {
		return fmt.Errorf("query: %s does not export %q (exports: %s)", f.Alias, f.Field, schema)
	}
	return nil
}
