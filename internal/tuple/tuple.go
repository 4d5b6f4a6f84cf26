// Package tuple defines the typed tuples that flow through Pivot Tracing:
// the unit of data produced at tracepoints, packed into baggage, emitted to
// agents, and aggregated into query results.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types Pivot Tracing tuples can carry.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union. The zero Value is null.
type Value struct {
	kind Kind
	num  uint64
	str  string
}

// Null is the absent value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, str: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Of converts a native Go value to a Value. Unsupported types map to a
// string via fmt.
func Of(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null
	case Value:
		return x
	case int:
		return Int(int64(x))
	case int32:
		return Int(int64(x))
	case int64:
		return Int(x)
	case uint:
		return Int(int64(x))
	case uint64:
		return Int(int64(x))
	case float32:
		return Float(float64(x))
	case float64:
		return Float(x)
	case string:
		return String(x)
	case bool:
		return Bool(x)
	case fmt.Stringer:
		return String(x.String())
	default:
		return String(fmt.Sprint(x))
	}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// Int returns the integer payload (0 for non-integers, truncating floats).
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.num)
	case KindFloat:
		return int64(math.Float64frombits(v.num))
	case KindBool:
		return int64(v.num)
	default:
		return 0
	}
}

// Float returns the numeric payload as a float64.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num))
	case KindFloat:
		return math.Float64frombits(v.num)
	case KindBool:
		return float64(v.num)
	default:
		return 0
	}
}

// Str returns the string payload ("" for non-strings).
func (v Value) Str() string {
	if v.kind == KindString {
		return v.str
	}
	return ""
}

// Bool returns the boolean payload.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.num != 0
	case KindFloat:
		return math.Float64frombits(v.num) != 0
	default:
		return false
	}
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports deep equality, with int/float numeric cross-comparison.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		return v.num == o.num && v.str == o.str
	}
	if v.IsNumeric() && o.IsNumeric() {
		return v.Float() == o.Float()
	}
	return false
}

// Compare returns -1, 0, or +1 ordering v relative to o. Values of
// different non-numeric kinds order by kind.
func (v Value) Compare(o Value) int {
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		switch {
		case v.kind < o.kind:
			return -1
		default:
			return 1
		}
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.str, o.str)
	case KindBool:
		switch {
		case v.num == o.num:
			return 0
		case v.num < o.num:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return v.str
	case KindBool:
		return strconv.FormatBool(v.num != 0)
	default:
		return "?"
	}
}

// Tuple is an ordered list of values. Field names live in the Schema.
type Tuple []Value

// Schema names the fields of a tuple, by position.
type Schema []string

// Index returns the position of field name, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f == name {
			return i
		}
	}
	return -1
}

// Concat returns a schema with o's fields appended.
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	return append(out, o...)
}

// Equal reports whether two schemas have identical field lists.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

func (s Schema) String() string { return strings.Join(s, ", ") }

// Clone deep-copies a tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports pointwise equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Project returns the tuple restricted to the given positions.
func (t Tuple) Project(idx []int) Tuple {
	return t.AppendProject(nil, idx)
}

// AppendProject appends the projected columns to dst and returns it,
// reusing dst's capacity. Callers that recycle dst own its lifetime; the
// values themselves are shared with t, not copied.
func (t Tuple) AppendProject(dst Tuple, idx []int) Tuple {
	for _, j := range idx {
		dst = append(dst, t[j])
	}
	return dst
}

// String renders the tuple for display.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// AppendKey appends to buf the group-by key of the values at the given
// positions and returns the extended buffer. The encoding is injective, so
// distinct groups never collide. Callers that look groups up by key can build the key
// in a reused scratch buffer and index their map with string(buf) — the Go
// compiler elides that conversion's allocation for map access — so the
// steady-state lookup path allocates nothing.
func (t Tuple) AppendKey(buf []byte, idx []int) []byte {
	for _, j := range idx {
		buf = AppendValue(buf, t[j])
	}
	return buf
}
