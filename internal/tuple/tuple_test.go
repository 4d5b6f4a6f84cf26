package tuple

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/slab"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(-42), KindInt, "-42"},
		{Float(2.5), KindFloat, "2.5"},
		{String("hi"), KindString, "hi"},
		{Bool(true), KindBool, "true"},
		{Null, KindNull, "null"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v String = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if Int(-42).Int() != -42 {
		t.Error("Int accessor")
	}
	if Float(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if String("hi").Str() != "hi" {
		t.Error("Str accessor")
	}
	if !Bool(true).Bool() || Bool(false).Bool() {
		t.Error("Bool accessor")
	}
}

func TestOfConvertsNativeTypes(t *testing.T) {
	if Of(7).Int() != 7 || Of(int64(8)).Int() != 8 || Of(uint(9)).Int() != 9 {
		t.Error("Of ints")
	}
	if Of(1.5).Float() != 1.5 || Of(float32(0.5)).Float() != 0.5 {
		t.Error("Of floats")
	}
	if Of("x").Str() != "x" || !Of(true).Bool() {
		t.Error("Of string/bool")
	}
	if Of(nil).Kind() != KindNull {
		t.Error("Of nil")
	}
	if Of(struct{ X int }{3}).Kind() != KindString {
		t.Error("Of fallback should stringify")
	}
}

func TestNumericCrossComparison(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("3 == 3.0")
	}
	if Int(3).Compare(Float(3.5)) != -1 {
		t.Error("3 < 3.5")
	}
	if Float(4.0).Compare(Int(3)) != 1 {
		t.Error("4.0 > 3")
	}
}

func TestStringAndBoolComparison(t *testing.T) {
	if String("a").Compare(String("b")) != -1 {
		t.Error("a < b")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Error("false < true")
	}
	if String("a").Equal(Int(1)) {
		t.Error("string != int")
	}
}

func TestSchemaIndexAndConcat(t *testing.T) {
	s := Schema{"host", "delta"}
	if s.Index("delta") != 1 || s.Index("missing") != -1 {
		t.Error("Index")
	}
	s2 := s.Concat(Schema{"procName"})
	if !s2.Equal(Schema{"host", "delta", "procName"}) {
		t.Errorf("Concat = %v", s2)
	}
	if !s.Equal(Schema{"host", "delta"}) {
		t.Error("Concat must not mutate receiver")
	}
}

func TestTupleConcatProjectClone(t *testing.T) {
	a := Tuple{Int(1), String("x")}
	j := Tuple{Int(1), String("x"), Float(2.5)}
	p := j.Project([]int{2, 0})
	if !p.Equal(Tuple{Float(2.5), Int(1)}) {
		t.Errorf("Project = %v", p)
	}
	c := a.Clone()
	c[0] = Int(99)
	if a[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
}

func TestGroupKeyInjective(t *testing.T) {
	// Pathological pairs that naive string-concat keys would collide on.
	a := Tuple{String("ab"), String("c")}
	b := Tuple{String("a"), String("bc")}
	if string(a.AppendKey(nil, []int{0, 1})) == string(b.AppendKey(nil, []int{0, 1})) {
		t.Error("group keys collide for (ab,c) vs (a,bc)")
	}
	if !bytes.Equal(a.AppendKey(nil, []int{0}), Tuple{String("ab")}.AppendKey(nil, []int{0})) {
		t.Error("same values must share a key")
	}
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Int(rng.Int63() - (1 << 62))
	case 1:
		return Float(rng.NormFloat64() * 1e6)
	case 2:
		buf := make([]byte, rng.Intn(20))
		rng.Read(buf)
		return String(string(buf))
	case 3:
		return Bool(rng.Intn(2) == 0)
	default:
		return Null
	}
}

func TestQuickValueCodecRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			v := randomValue(rng)
			buf := AppendValue(nil, v)
			r := NewReader(buf)
			if got := r.Value(); r.Err() != nil || len(r.Rest()) != 0 || !got.Equal(v) {
				return false
			}
			if len(buf) != EncodedSize(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTupleCodecRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tup := make(Tuple, rng.Intn(8))
		for i := range tup {
			tup[i] = randomValue(rng)
		}
		buf := AppendTuple(nil, tup)
		var values slab.Slab[Value]
		r := NewReader(buf)
		got := r.SlabTuple(&values, 1, false)
		return r.Err() == nil && len(r.Rest()) == 0 && got.Equal(tup)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyConsistentWithEquality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Tuple{randomValue(rng), randomValue(rng)}
		b := Tuple{randomValue(rng), randomValue(rng)}
		idx := []int{0, 1}
		if a.Equal(b) != bytes.Equal(a.AppendKey(nil, idx), b.AppendKey(nil, idx)) {
			// NaN breaks Equal reflexivity; skip those.
			if a[0].Kind() == KindFloat && math.IsNaN(a[0].Float()) {
				return true
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrorPaths(t *testing.T) {
	for name, buf := range map[string][]byte{
		"empty buffer": nil,
		"short float":  {byte(KindFloat), 1, 2},
		"short string": {byte(KindString), 10, 'a'},
		"bad tag":      {200},
	} {
		r := NewReader(buf)
		if r.Value(); r.Err() == nil {
			t.Errorf("%s should fail", name)
		}
	}
	var values slab.Slab[Value]
	r := NewReader([]byte{2, byte(KindNull)})
	if r.SlabTuple(&values, 1, false); r.Err() == nil {
		t.Error("truncated tuple should fail")
	}
}

// TestReaderFirstErrorWins: after its first failure a Reader returns zero
// values, has no bytes left and keeps the first cause, whatever is read or
// failed afterwards; Count refuses a length the unread bytes cannot hold.
func TestReaderFirstErrorWins(t *testing.T) {
	r := NewReader([]byte{7, 200, 1, 2, 3})
	if b := r.Byte(); b != 7 || r.Err() != nil {
		t.Fatalf("Byte() = %d, err %v", b, r.Err())
	}
	r.Value() // kind tag 200
	first := r.Err()
	if first == nil || errors.Is(first, ErrTruncated) {
		t.Fatalf("bad kind tag: err = %v, want a bad-tag error", first)
	}
	if u, v, b, s, n := r.Uvarint(), r.Varint(), r.Byte(), r.String(), r.Count(); u != 0 || v != 0 || b != 0 || s != "" || n != 0 {
		t.Errorf("reads after a failure returned %d %d %d %q %d, want zero values", u, v, b, s, n)
	}
	var values slab.Slab[Value]
	if r.Value().Kind() != KindNull || len(r.SlabTuple(&values, 1, false)) != 0 || len(r.Strings()) != 0 || len(r.Ints()) != 0 || r.Fixed64() != 0 {
		t.Error("composite reads after a failure returned non-zero values")
	}
	r.Fail(errors.New("later"))
	if r.Err() != first || r.Rest() != nil {
		t.Errorf("after a later failure: err = %v, rest = %v; want the first cause and no bytes", r.Err(), r.Rest())
	}

	r = NewReader([]byte{3, 1, 2})
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Count of 3 with 2 bytes left = %d, err %v; want ErrTruncated", n, r.Err())
	}
}

// TestBorrowReadsLikeCopy: over every prefix of every value and tuple seed
// — every kind, and every way to run short — a borrowing value read returns
// the value, unread bytes and error that Value does, and Borrow what String
// does; a borrowed string lies inside the Reader's buffer.
func TestBorrowReadsLikeCopy(t *testing.T) {
	same := func(a, b error) bool { return a == b || a != nil && b != nil && a.Error() == b.Error() }
	seeds := valueSeeds()
	for name, s := range tupleSeeds() {
		seeds["tuple-"+name] = s
	}
	for name, seed := range seeds {
		for cut := 0; cut <= len(seed); cut++ {
			buf := seed[:cut]
			for _, off := range []int{0, 1} { // a value, and the string after its kind tag
				if off > len(buf) {
					continue
				}
				c, b := NewReader(buf[off:]), NewReader(buf[off:])
				var cv, bv Value
				if off == 0 {
					cv, bv = c.Value(), b.value(true)
				} else {
					cv, bv = String(c.String()), String(b.Borrow())
				}
				if cv.Kind() != bv.Kind() || !cv.Equal(bv) || !bytes.Equal(c.Rest(), b.Rest()) || !same(c.Err(), b.Err()) {
					t.Errorf("%s[:%d] at %d: borrowed %v, rest %x, err %v; copied %v, rest %x, err %v",
						name, cut, off, bv, b.Rest(), b.Err(), cv, c.Rest(), c.Err())
				}
				if s := bv.Str(); s != "" {
					p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
					if p < lo || p+uintptr(len(s)) > lo+uintptr(len(buf)) {
						t.Errorf("%s[:%d] at %d: borrowed %q does not alias the buffer", name, cut, off, s)
					}
				}
			}
		}
	}
}

// readTuple is the reference tuple decoder SlabTuple is held to: a count,
// then that many values, each read by Value into a tuple of its own.
func readTuple(r *Reader) Tuple {
	n := r.Count()
	t := make(Tuple, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		t = append(t, r.Value())
	}
	return t
}

// TestSlabTupleReadsLikeTuple: over every prefix of every tuple seed,
// SlabTuple, copying or borrowing, fails where readTuple does and otherwise
// returns the same tuple and unread bytes, with no spare capacity; a later
// tuple taken from the same slab never overwrites it.
func TestSlabTupleReadsLikeTuple(t *testing.T) {
	for name, seed := range tupleSeeds() {
		for cut := 0; cut <= len(seed); cut++ {
			for _, borrow := range []bool{false, true} {
				buf := append(seed[:cut:cut], seed[:cut]...) // the tuple twice, when it is whole
				var values slab.Slab[Value]
				c, b := NewReader(buf), NewReader(buf)
				ct, bt := readTuple(&c), b.SlabTuple(&values, 2, borrow)
				if (c.Err() == nil) != (b.Err() == nil) {
					t.Errorf("%s[:%d] borrow=%v: slab err %v, copied err %v", name, cut, borrow, b.Err(), c.Err())
				}
				if c.Err() != nil {
					continue
				}
				if !ct.Equal(bt) || cap(bt) != len(bt) || !bytes.Equal(c.Rest(), b.Rest()) {
					t.Errorf("%s[:%d] borrow=%v: slab %v (cap %d), rest %x; copied %v, rest %x",
						name, cut, borrow, bt, cap(bt), b.Rest(), ct, c.Rest())
				}
				if b.SlabTuple(&values, 1, borrow); !ct.Equal(bt) {
					t.Errorf("%s[:%d] borrow=%v: the next tuple overwrote %v with %v", name, cut, borrow, ct, bt)
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool", Kind(77): "kind(77)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
