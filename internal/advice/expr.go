package advice

import (
	"repro/internal/query"
	"repro/internal/tuple"
)

// Expr is a FILTER predicate or a computed column (such as
// response.time - request.time) bound to working-tuple positions.
// BindExpr resolves every field reference once, when a program is compiled
// or decoded, so a fire evaluates the expression in place, the way the
// paper's woven advice reads an exported variable where it already is: no
// callback, no lookup and no allocation. The operators' semantics are
// query's (BinOp.Apply, ApplyUnary); only the field lookup is bound.
type Expr struct {
	expr     query.Expr
	bindings map[query.FieldRef]int
	nodes    []exprNode // expr in pre-order; nodes[0] is the root
}

// exprNode is one bound expression node. The zero value is the null
// literal.
type exprNode struct {
	val  tuple.Value // a literal's value
	pos  int         // a field's working-tuple position; -1 when unbound
	kind exprKind
	op   byte  // a binary node's query.BinOp or a unary node's op byte
	r    int32 // a binary node's right operand; every operator's first operand is the next node
}

type exprKind uint8

const (
	exprLiteral exprKind = iota
	exprField
	exprBinary
	exprUnary
)

// BindExpr binds e to working-tuple positions: bindings maps each field
// reference to its position. A reference with no binding, or one whose
// position lies outside the tuple it is evaluated on, reads null, as does
// a nil expression or one of a kind the wire cannot carry.
func BindExpr(e query.Expr, bindings map[query.FieldRef]int) Expr {
	return Expr{expr: e, bindings: bindings, nodes: bindNodes(nil, e, bindings)}
}

func bindNodes(ns []exprNode, e query.Expr, bindings map[query.FieldRef]int) []exprNode {
	switch x := e.(type) {
	case query.FieldRef:
		pos, ok := bindings[x]
		if !ok {
			pos = -1
		}
		return append(ns, exprNode{kind: exprField, pos: pos})
	case query.Literal:
		return append(ns, exprNode{val: x.Value})
	case query.Binary:
		at := len(ns)
		ns = bindNodes(append(ns, exprNode{kind: exprBinary, op: byte(x.Op)}), x.L, bindings)
		ns[at].r = int32(len(ns))
		return bindNodes(ns, x.R, bindings)
	case query.Unary:
		return bindNodes(append(ns, exprNode{kind: exprUnary, op: x.Op}), x.X, bindings)
	default:
		return append(ns, exprNode{})
	}
}

// Source returns the expression as the query wrote it.
func (e *Expr) Source() query.Expr { return e.expr }

// Bindings returns the field-reference positions the expression was bound
// with.
func (e *Expr) Bindings() map[query.FieldRef]int { return e.bindings }

// Eval evaluates the expression against one working tuple.
func (e *Expr) Eval(w tuple.Tuple) tuple.Value {
	if len(e.nodes) == 0 {
		return tuple.Null
	}
	return e.eval(0, w)
}

func (e *Expr) eval(i int32, w tuple.Tuple) tuple.Value {
	n := &e.nodes[i]
	switch n.kind {
	case exprField:
		if uint(n.pos) < uint(len(w)) { // a negative position wraps above any length
			return w[n.pos]
		}
		return tuple.Null
	case exprBinary:
		return query.BinOp(n.op).Apply(e.eval(i+1, w), e.eval(n.r, w))
	case exprUnary:
		return query.ApplyUnary(n.op, e.eval(i+1, w))
	default:
		return n.val
	}
}
