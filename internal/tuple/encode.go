package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/slab"
)

// Binary encoding: one tag byte (the Kind), then a kind-specific payload.
// Integers use zig-zag varints; floats use 8 fixed bytes; strings are
// length-prefixed. Tuples are a uvarint count followed by each value.

// ErrTruncated reports that the bytes ended before the encoding did: a
// short buffer, a varint that runs off its end, or a count the unread
// bytes could not hold. Every decoder built on Reader fails with it.
var ErrTruncated = errors.New("tuple: truncated encoding")

// ErrNonCanonical reports bytes that decode, but are not what encoding
// the decoded value writes: an over-long varint, a bool byte other than 0
// or 1, or (in the decoders built on Reader) any other form their
// encoders never write.
var ErrNonCanonical = errors.New("tuple: non-canonical encoding")

// Reader consumes a varint-framed byte string a peer wrote. It is where
// the repo's decoders (tuple, agg, baggage, wire) decide how untrusted
// bytes are handled: every read checks the bytes left; Count refuses a
// list length the unread bytes could not hold; only the canonical
// encoding is accepted — the bytes the Append functions write, shortest
// varints and 0 or 1 for a bool — so what decodes re-encodes to the bytes
// it came from; and the first failure
// sticks — every later read returns a zero value and Err keeps the first
// cause. A decoder is therefore the list of its fields and one Err check.
// Reads are method calls, which Go evaluates in lexical order, so a
// decoder may read its fields inside a composite literal. Loops over a
// Count stop at the first failure (`n > 0 && r.Err() == nil`), so a
// failed decode allocates nothing further.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf, which it never writes.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread bytes: nil after a failure.
func (r *Reader) Rest() []byte { return r.buf }

// Fail records err unless an earlier failure is already recorded, and
// drops the unread bytes so that every later read fails by itself.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.buf = nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, k := binary.Uvarint(r.buf)
	if !r.canonical(k, UvarintLen(v)) {
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	v, k := binary.Varint(r.buf)
	if !r.canonical(k, VarintLen(v)) {
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

// canonical checks that a varint read k bytes, and the shortest number
// for its value, want; it fails r otherwise.
func (r *Reader) canonical(k, want int) bool {
	switch {
	case k <= 0:
		r.Fail(ErrTruncated)
	case k != want:
		r.Fail(ErrNonCanonical)
	default:
		return true
	}
	return false
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Fixed64 reads eight little-endian bytes.
func (r *Reader) Fixed64() uint64 {
	if len(r.buf) < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Count reads a list length. Every element of every list encoded in this
// repo takes at least one byte, so a count above the unread bytes is
// refused here, before it can size an allocation or drive a loop. (The
// comparison is in uint64: a count above MaxInt64 would go negative
// through int.)
func (r *Reader) Count() int {
	n, k := binary.Uvarint(r.buf)
	if !r.canonical(k, UvarintLen(n)) {
		return 0
	}
	if n > uint64(len(r.buf)-k) {
		r.Fail(ErrTruncated)
		return 0
	}
	r.buf = r.buf[k:]
	return int(n)
}

// CountOf is Count for a list whose elements take at least size bytes
// each: a tighter bound for a decoder that allocates the whole list at
// once.
func (r *Reader) CountOf(size int) int {
	n := r.Count()
	if n*size > len(r.buf) { // n is at most len(r.buf): the product cannot overflow
		r.Fail(ErrTruncated)
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return r.str(false) }

// Borrow reads a length-prefixed string as String does, without copying
// it: the result aliases the Reader's buffer, so it stays valid only as
// long as nothing writes that buffer.
func (r *Reader) Borrow() string { return r.str(true) }

func (r *Reader) str(borrow bool) string {
	b := r.bytes()
	if borrow {
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return string(b)
}

// bytes reads a length-prefixed byte string, as a subslice of the buffer.
func (r *Reader) bytes() []byte {
	n := r.Count()
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Strings reads a count and that many strings.
func (r *Reader) Strings() []string { return r.strings(false) }

// BorrowStrings reads as Strings does, except that every string aliases
// the Reader's buffer (see Borrow).
func (r *Reader) BorrowStrings() []string { return r.strings(true) }

func (r *Reader) strings(borrow bool) []string {
	n := r.Count()
	out := make([]string, 0, n)
	for ; n > 0 && r.err == nil; n-- {
		out = append(out, r.str(borrow))
	}
	return out
}

// Ints reads a count and that many varints.
func (r *Reader) Ints() []int {
	n := r.Count()
	out := make([]int, 0, n)
	for ; n > 0 && r.err == nil; n-- {
		out = append(out, int(r.Varint()))
	}
	return out
}

// Value reads one value.
func (r *Reader) Value() Value { return r.value(false) }

// BorrowValue reads one value as Value does, except that a string value
// aliases the Reader's buffer (see Borrow).
func (r *Reader) BorrowValue() Value { return r.value(true) }

func (r *Reader) value(borrow bool) Value {
	switch kind := Kind(r.Byte()); kind {
	case KindNull:
		return Null
	case KindInt:
		return Int(r.Varint())
	case KindFloat:
		return Float(math.Float64frombits(r.Fixed64()))
	case KindString:
		return String(r.str(borrow))
	case KindBool:
		b := r.Byte()
		if b > 1 {
			r.Fail(ErrNonCanonical)
		}
		return Bool(b == 1)
	default:
		r.Fail(fmt.Errorf("tuple: bad kind tag %d", kind))
		return Null
	}
}

// SlabTuple reads one tuple — a count, then that many values — into
// values, which expects this tuple's width for each of the more tuples
// (this one included) the caller has yet to read: exact unless the tuples
// are ragged, and never beyond what the unread bytes could encode. The
// tuple has no spare capacity, so an append to it moves it out of the
// slab. With borrow, its string values alias the Reader's buffer (see
// Borrow).
func (r *Reader) SlabTuple(values *slab.Slab[Value], more int, borrow bool) Tuple {
	n := r.Count()
	values.Expect(min(more*n, len(r.buf)))
	t := values.Take(n)
	for i := 0; i < n && r.err == nil; i++ {
		t[i] = r.value(borrow)
	}
	return t
}

// AppendValue appends the binary encoding of v to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt:
		buf = binary.AppendVarint(buf, int64(v.num))
	case KindFloat:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v.num)
		buf = append(buf, tmp[:]...)
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.str)))
		buf = append(buf, v.str...)
	case KindBool:
		buf = append(buf, byte(v.num))
	}
	return buf
}

// AppendTuple appends the binary encoding of t to buf.
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// AppendProjected appends the encoding of t.Project(idx) to buf without
// building the projection.
func AppendProjected(buf []byte, t Tuple, idx []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(idx)))
	for _, j := range idx {
		buf = AppendValue(buf, t[j])
	}
	return buf
}

// UvarintLen returns the number of bytes binary.AppendUvarint writes for x.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// VarintLen returns the number of bytes binary.AppendVarint writes for x.
func VarintLen(x int64) int {
	return UvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}

// EncodedSize returns the number of bytes AppendValue would write for v.
// It is computed arithmetically — no buffer is built — so size accounting
// on hot paths (baggage budgets, report batching) never allocates.
func EncodedSize(v Value) int {
	switch v.kind {
	case KindInt:
		return 1 + VarintLen(int64(v.num))
	case KindFloat:
		return 1 + 8
	case KindString:
		return 1 + UvarintLen(uint64(len(v.str))) + len(v.str)
	case KindBool:
		return 2
	default: // KindNull and unknown kinds encode as the bare tag byte
		return 1
	}
}

// SizeTuple returns the number of bytes AppendTuple would write for t,
// without building the encoding.
func SizeTuple(t Tuple) int {
	n := UvarintLen(uint64(len(t)))
	for _, v := range t {
		n += EncodedSize(v)
	}
	return n
}

// SizeProjected returns the number of bytes AppendProjected would write.
func SizeProjected(t Tuple, idx []int) int {
	n := UvarintLen(uint64(len(idx)))
	for _, j := range idx {
		n += EncodedSize(t[j])
	}
	return n
}
