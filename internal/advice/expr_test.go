package advice

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/query"
	"repro/internal/tuple"
)

// reference evaluates e as package query defines it, through a resolver
// that looks every field up in bindings: the semantics a bound expression
// must reproduce.
func reference(e query.Expr, bindings map[query.FieldRef]int, w tuple.Tuple) tuple.Value {
	return e.Eval(func(ref query.FieldRef) tuple.Value {
		pos, ok := bindings[ref]
		if !ok || pos >= len(w) {
			return tuple.Null
		}
		return w[pos]
	})
}

func sameValue(a, b tuple.Value) bool {
	return bytes.Equal(tuple.AppendValue(nil, a), tuple.AppendValue(nil, b)) // NaN is itself
}

// TestBoundExprMatchesReference: every operator, on every pair of operands
// of every kind, evaluates bound as it does through the resolver, and the
// cases with a fixed answer (division by zero, the promotion of an inexact
// integer division, an unknown operator, a missing binding, a position
// past the tuple) give it.
func TestBoundExprMatchesReference(t *testing.T) {
	w := tuple.Tuple{
		tuple.Int(7), tuple.Int(2), tuple.Int(-3), tuple.Int(0), tuple.Float(2.5), tuple.Float(0),
		tuple.Float(-0.5), tuple.String("a"), tuple.String("b"), tuple.Bool(true), tuple.Bool(false), tuple.Null,
	}
	bindings := map[query.FieldRef]int{}
	operands := []query.Expr{query.Literal{Value: tuple.Int(4)}, query.Literal{Value: tuple.String("a")}}
	for i := range w {
		ref := query.FieldRef{Alias: "w", Field: strconv.Itoa(i)}
		bindings[ref] = i
		operands = append(operands, ref)
	}
	far := query.FieldRef{Alias: "w", Field: "far"}
	bindings[far] = len(w) + 3
	missing := query.FieldRef{Alias: "x", Field: "y"}

	check := func(e query.Expr) {
		t.Helper()
		b := BindExpr(e, bindings)
		if got, want := b.Eval(w), reference(e, bindings, w); !sameValue(got, want) {
			t.Errorf("%s: bound = %v, reference = %v", e, got, want)
		}
	}
	for op := query.OpEq; op <= query.OpOr+1; op++ { // one past the last is unknown
		for _, l := range operands {
			for _, r := range operands {
				check(query.Binary{Op: op, L: l, R: r})
			}
		}
	}
	for _, op := range []byte{'!', '-', '~'} {
		for _, x := range operands {
			check(query.Unary{Op: op, X: x})
		}
	}

	lit := func(v tuple.Value) query.Expr { return query.Literal{Value: v} }
	bin := func(op query.BinOp, l, r query.Expr) query.Expr { return query.Binary{Op: op, L: l, R: r} }
	ref := func(i int) query.Expr { return query.FieldRef{Alias: "w", Field: strconv.Itoa(i)} }
	for _, tc := range []struct {
		name string
		e    query.Expr
		want tuple.Value
	}{
		{"int division by zero", bin(query.OpDiv, ref(0), ref(3)), tuple.Null},
		{"float division by zero", bin(query.OpDiv, ref(4), ref(5)), tuple.Null},
		{"exact int division", bin(query.OpDiv, lit(tuple.Int(6)), ref(1)), tuple.Int(3)},
		{"inexact int division promotes", bin(query.OpDiv, ref(0), ref(1)), tuple.Float(3.5)},
		{"int and float promote", bin(query.OpAdd, ref(0), ref(4)), tuple.Float(9.5)},
		{"unknown binary op", bin(query.OpOr+1, ref(0), ref(1)), tuple.Null},
		{"unknown unary op", query.Unary{Op: '~', X: ref(0)}, tuple.Null},
		{"negated float", query.Unary{Op: '-', X: ref(6)}, tuple.Float(0.5)},
		{"missing binding", missing, tuple.Null},
		{"missing binding compared", bin(query.OpEq, missing, ref(11)), tuple.Bool(true)},
		{"position past the tuple", far, tuple.Null},
		{"nested", bin(query.OpAnd,
			bin(query.OpGe, bin(query.OpMul, bin(query.OpAdd, ref(0), lit(tuple.Int(2))), ref(1)), lit(tuple.Int(18))),
			query.Unary{Op: '!', X: bin(query.OpEq, ref(7), ref(8))}), tuple.Bool(true)},
		{"nil expression", nil, tuple.Null},
	} {
		b := BindExpr(tc.e, bindings)
		if got := b.Eval(w); !sameValue(got, tc.want) {
			t.Errorf("%s: %v = %v, want %v", tc.name, tc.e, got, tc.want)
		}
		if tc.e != nil {
			if ref := reference(tc.e, bindings, w); !sameValue(ref, tc.want) {
				t.Errorf("%s: reference %v = %v, want %v", tc.name, tc.e, ref, tc.want)
			}
		}
	}
}
