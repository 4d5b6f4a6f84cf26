// Package query implements Pivot Tracing's LINQ-like query language (§3,
// Table 1 of the paper): parsing, the AST, and semantic analysis against a
// tracepoint registry. Queries are relational queries over the streaming
// datasets of tuples generated at tracepoints, with the happened-before
// join (->) as the distinguishing operator.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/agg"
	"repro/internal/tuple"
)

// TempFilter is a temporal filter applied to a joined source (§3): take the
// first/most recent 1 or N tuples of the joined query per execution.
type TempFilter uint8

// Temporal filters.
const (
	NoFilter TempFilter = iota
	FilterFirst
	FilterFirstN
	FilterMostRecent
	FilterMostRecentN
)

func (f TempFilter) String() string {
	switch f {
	case NoFilter:
		return ""
	case FilterFirst:
		return "First"
	case FilterFirstN:
		return "FirstN"
	case FilterMostRecent:
		return "MostRecent"
	case FilterMostRecentN:
		return "MostRecentN"
	default:
		return fmt.Sprintf("filter(%d)", uint8(f))
	}
}

// Source is the input of a From or Join clause: either a tracepoint name or
// a reference to another named query, optionally wrapped in a temporal
// filter.
type Source struct {
	Tracepoint string // dotted tracepoint name, if a tracepoint source
	Subquery   string // named query reference, if a query source
	Filter     TempFilter
	N          int // for FirstN / MostRecentN
}

// IsSubquery reports whether the source references a named query.
func (s Source) IsSubquery() bool { return s.Subquery != "" }

func (s Source) String() string {
	name := s.Tracepoint
	if s.IsSubquery() {
		name = s.Subquery
	}
	switch s.Filter {
	case NoFilter:
		return name
	case FilterFirstN, FilterMostRecentN:
		return fmt.Sprintf("%s(%d, %s)", s.Filter, s.N, name)
	default:
		return fmt.Sprintf("%s(%s)", s.Filter, name)
	}
}

// From is the query's primary input: one alias bound to one or more
// sources (multiple sources express the Union operation of Table 1).
type From struct {
	Alias   string
	Sources []Source
}

// Join is a happened-before join clause: Join Alias In Source On Left ->
// Right, joining tuples of Source to the query when they causally precede.
type Join struct {
	Alias  string
	Source Source
	// Left and Right are the aliases related by ->; Left must causally
	// precede Right.
	Left, Right string
}

// SelectItem is one output column: a plain expression or an aggregation of
// an expression.
type SelectItem struct {
	Agg    agg.Func
	HasAgg bool
	Expr   Expr // nil for a bare COUNT
}

func (si SelectItem) String() string {
	if !si.HasAgg {
		return si.Expr.String()
	}
	if si.Expr == nil {
		return si.Agg.String()
	}
	return fmt.Sprintf("%s(%s)", si.Agg, si.Expr)
}

// Query is a parsed Pivot Tracing query.
type Query struct {
	// Name is the query's identifier, assigned at installation; other
	// queries can reference it as a source.
	Name    string
	From    From
	Joins   []Join
	Where   []Expr // conjunction of predicates
	GroupBy []FieldRef
	Select  []SelectItem
	// Sample is the query's request-level sampling rate from a Sample
	// clause: in (0, 1), one keep/suppress decision is minted per request
	// and kept tuples are weighted by 1/Sample. Zero means unsampled
	// (exact). Rates outside (0, 1] are rejected at parse time.
	Sample float64
}

// String renders the query in the surface syntax; parsing the result
// yields an equal AST (round-trip property).
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("From ")
	b.WriteString(q.From.Alias)
	b.WriteString(" In ")
	for i, s := range q.From.Sources {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	for _, j := range q.Joins {
		fmt.Fprintf(&b, " Join %s In %s On %s -> %s", j.Alias, j.Source, j.Left, j.Right)
	}
	for _, w := range q.Where {
		fmt.Fprintf(&b, " Where %s", w)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GroupBy ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if len(q.Select) > 0 {
		b.WriteString(" Select ")
		for i, s := range q.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.String())
		}
	}
	if q.Sample != 0 {
		b.WriteString(" Sample ")
		b.WriteString(strconv.FormatFloat(q.Sample, 'g', -1, 64))
	}
	return b.String()
}

// Expr is an expression over tracepoint-exported variables.
type Expr interface {
	fmt.Stringer
	// Eval evaluates the expression; resolve maps a field reference to a
	// value.
	Eval(resolve func(FieldRef) tuple.Value) tuple.Value
}

// FieldRef references an exported variable of an aliased source, e.g.
// incr.delta. A bare alias reference (Field == "") resolves to the single
// output column of a joined subquery.
type FieldRef struct {
	Alias string
	Field string
}

func (f FieldRef) String() string {
	if f.Field == "" {
		return f.Alias
	}
	return f.Alias + "." + f.Field
}

// Eval implements Expr.
func (f FieldRef) Eval(resolve func(FieldRef) tuple.Value) tuple.Value {
	return resolve(f)
}

// Literal is a constant expression.
type Literal struct {
	Value tuple.Value
}

func (l Literal) String() string {
	if l.Value.Kind() == tuple.KindString {
		return fmt.Sprintf("%q", l.Value.Str())
	}
	return l.Value.String()
}

// Eval implements Expr.
func (l Literal) Eval(func(FieldRef) tuple.Value) tuple.Value { return l.Value }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpAnd: "&&", OpOr: "||",
}

func (op BinOp) String() string { return binOpNames[op] }

// Binary is a binary expression.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Eval implements Expr.
func (b Binary) Eval(resolve func(FieldRef) tuple.Value) tuple.Value {
	return b.Op.Apply(b.L.Eval(resolve), b.R.Eval(resolve))
}

// Apply applies the operator to its operands: the one definition of the
// binary operators, which Binary.Eval and advice's bound expressions
// share. Numeric operators promote to float when either operand is a
// float, and an inexact integer division promotes too; division by zero
// is null. Comparisons use tuple.Value.Compare. An unknown operator
// yields null.
func (op BinOp) Apply(l, r tuple.Value) tuple.Value {
	switch op {
	case OpEq:
		return tuple.Bool(l.Equal(r))
	case OpNe:
		return tuple.Bool(!l.Equal(r))
	case OpLt:
		return tuple.Bool(l.Compare(r) < 0)
	case OpLe:
		return tuple.Bool(l.Compare(r) <= 0)
	case OpGt:
		return tuple.Bool(l.Compare(r) > 0)
	case OpGe:
		return tuple.Bool(l.Compare(r) >= 0)
	case OpAnd:
		return tuple.Bool(l.Bool() && r.Bool())
	case OpOr:
		return tuple.Bool(l.Bool() || r.Bool())
	case OpAdd, OpSub, OpMul, OpDiv:
		return arith(op, l, r)
	default:
		return tuple.Null
	}
}

func arith(op BinOp, l, r tuple.Value) tuple.Value {
	useFloat := l.Kind() == tuple.KindFloat || r.Kind() == tuple.KindFloat
	if op == OpDiv {
		if r.Float() == 0 {
			return tuple.Null
		}
		if !useFloat && l.Int()%r.Int() != 0 {
			useFloat = true
		}
	}
	if useFloat {
		a, b := l.Float(), r.Float()
		switch op {
		case OpAdd:
			return tuple.Float(a + b)
		case OpSub:
			return tuple.Float(a - b)
		case OpMul:
			return tuple.Float(a * b)
		case OpDiv:
			return tuple.Float(a / b)
		}
	}
	a, b := l.Int(), r.Int()
	switch op {
	case OpAdd:
		return tuple.Int(a + b)
	case OpSub:
		return tuple.Int(a - b)
	case OpMul:
		return tuple.Int(a * b)
	case OpDiv:
		return tuple.Int(a / b)
	}
	return tuple.Null
}

// Unary is a unary expression (logical not, numeric negation).
type Unary struct {
	Op byte // '!' or '-'
	X  Expr
}

func (u Unary) String() string { return fmt.Sprintf("%c%s", u.Op, u.X) }

// Eval implements Expr.
func (u Unary) Eval(resolve func(FieldRef) tuple.Value) tuple.Value {
	return ApplyUnary(u.Op, u.X.Eval(resolve))
}

// ApplyUnary applies a unary operator, '!' or '-', to its operand: the
// one definition of the unary operators, shared like BinOp.Apply. Any
// other op byte yields null.
func ApplyUnary(op byte, v tuple.Value) tuple.Value {
	switch op {
	case '!':
		return tuple.Bool(!v.Bool())
	case '-':
		if v.Kind() == tuple.KindFloat {
			return tuple.Float(-v.Float())
		}
		return tuple.Int(-v.Int())
	default:
		return tuple.Null
	}
}

// Walk visits every sub-expression of e, including e itself.
func Walk(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case Binary:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case Unary:
		Walk(x.X, visit)
	}
}

// FieldRefs collects the distinct field references in an expression.
func FieldRefs(e Expr) []FieldRef {
	var out []FieldRef
	seen := map[FieldRef]bool{}
	Walk(e, func(x Expr) {
		if f, ok := x.(FieldRef); ok && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	})
	return out
}
