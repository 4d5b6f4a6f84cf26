package tuple

import (
	"bytes"
	"testing"

	"repro/internal/randtest"
	"repro/internal/slab"
)

// valueSeeds covers every kind tag plus malformed shapes: a huge string
// length, a bad kind tag, and truncations.
func valueSeeds() map[string][]byte {
	return map[string][]byte{
		"null":        AppendValue(nil, Null),
		"int":         AppendValue(nil, Int(-42)),
		"float":       AppendValue(nil, Float(3.25)),
		"string":      AppendValue(nil, String("hello")),
		"bool":        AppendValue(nil, Bool(true)),
		"huge-len":    {byte(KindString), 0xff, 0xff, 0xff, 0xff, 0x0f},
		"bad-kind":    {0x7f, 0x01},
		"trunc-float": {byte(KindFloat), 1, 2, 3},
	}
}

func tupleSeeds() map[string][]byte {
	return map[string][]byte{
		"mixed": AppendTuple(nil, Tuple{Int(1), Float(2.5), String("s"), Bool(false), Null}),
		"empty": AppendTuple(nil, Tuple{}),
		// Count claims 2^28 elements but the buffer holds one byte: the
		// decoder must fail without preallocating for the claimed count.
		"huge-count": {0xff, 0xff, 0xff, 0x7f, 0x00},
		// Count of 2^63 goes negative through a plain int conversion —
		// the capacity clamp must compare in uint64 (found by fuzzing).
		"overflow-count": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
}

// FuzzDecodeValue: a Reader, the decoder every production codec is built
// on, must never panic on arbitrary bytes, and a value it decodes must
// re-encode to a stable canonical form. A borrowed read decodes the same
// value as a copying one.
func FuzzDecodeValue(f *testing.F) {
	for _, s := range valueSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		v := r.Value()
		if r.Err() != nil {
			return
		}
		if len(r.Rest()) > len(data) {
			t.Fatalf("decode returned more bytes than it was given")
		}
		enc := AppendValue(nil, v)
		b := NewReader(data)
		if bv := b.BorrowValue(); b.Err() != nil || !bytes.Equal(AppendValue(nil, bv), enc) {
			t.Fatalf("borrowed read gave %v (err %v), copying read %v", bv, b.Err(), v)
		}
		r2 := NewReader(enc)
		v2 := r2.Value()
		if r2.Err() != nil || len(r2.Rest()) != 0 {
			t.Fatalf("re-decode of re-encoded value: err=%v trailing=%d", r2.Err(), len(r2.Rest()))
		}
		if v2.Kind() != v.Kind() || !v2.Equal(v) {
			t.Fatalf("re-decode changed the value: %v (%v) != %v (%v)", v2, v2.Kind(), v, v.Kind())
		}
		if enc2 := AppendValue(nil, v2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixpoint: %x != %x", enc2, enc)
		}
	})
}

// FuzzDecodeTuple: same contract at the tuple level, for SlabTuple, the
// tuple read of the wire and baggage decoders, borrowing as they do; it
// decodes what the reference readTuple decodes.
func FuzzDecodeTuple(f *testing.F) {
	for _, s := range tupleSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var values slab.Slab[Value]
		r, c := NewReader(data), NewReader(data)
		tup, ref := r.SlabTuple(&values, 1, true), readTuple(&c)
		if (r.Err() == nil) != (c.Err() == nil) {
			t.Fatalf("SlabTuple err %v, reference err %v", r.Err(), c.Err())
		}
		if r.Err() != nil {
			return
		}
		if len(r.Rest()) > len(data) {
			t.Fatalf("decode returned more bytes than it was given")
		}
		enc := AppendTuple(nil, tup)
		if !bytes.Equal(enc, AppendTuple(nil, ref)) {
			t.Fatalf("SlabTuple read %v, the reference %v", tup, ref)
		}
		r2 := NewReader(enc)
		tup2 := r2.SlabTuple(&values, 1, false)
		if r2.Err() != nil || len(r2.Rest()) != 0 {
			t.Fatalf("re-decode of re-encoded tuple: err=%v trailing=%d", r2.Err(), len(r2.Rest()))
		}
		if !tup2.Equal(tup) {
			t.Fatalf("re-decode changed the tuple: %v != %v", tup2, tup)
		}
		if enc2 := AppendTuple(nil, tup2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixpoint: %x != %x", enc2, enc)
		}
	})
}

// FuzzValueRoundTrip drives the codec with structured inputs: every
// constructed value must survive encode/decode exactly, bit-for-bit for
// floats (NaN payloads included).
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(uint8(0), int64(0), 0.0, "", false)
	f.Add(uint8(1), int64(-1), 1.5, "x", true)
	f.Add(uint8(2), int64(1<<62), -0.0, "héllo\x00", false)
	f.Add(uint8(3), int64(7), 2.5, "quoted \"string\"", true)
	f.Add(uint8(4), int64(0), 3.25, "", true)
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string, b bool) {
		var v Value
		switch kind % 5 {
		case 0:
			v = Null
		case 1:
			v = Int(i)
		case 2:
			v = Float(fl)
		case 3:
			v = String(s)
		case 4:
			v = Bool(b)
		}
		enc := AppendValue(nil, v)
		r := NewReader(enc)
		got := r.Value()
		if r.Err() != nil || len(r.Rest()) != 0 {
			t.Fatalf("round-trip decode of %v: err=%v trailing=%d", v, r.Err(), len(r.Rest()))
		}
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Fatalf("round-trip changed %v (%v) into %v (%v)", v, v.Kind(), got, got.Kind())
		}
	})
}

func TestRegenTupleFuzzCorpus(t *testing.T) {
	randtest.RegenCorpus(t, "FuzzDecodeValue", valueSeeds())
	randtest.RegenCorpus(t, "FuzzDecodeTuple", tupleSeeds())
}
