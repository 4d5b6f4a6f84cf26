package baggage

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/slab"
	"repro/internal/tuple"
)

// Wire format (all integers are varints unless noted):
//
//	baggage  := count:uvarint instance*
//	instance := nonce:uvarint count:uvarint slot*
//	slot     := name:str spec content
//	spec     := kind:byte n:varint fields:[uvarint str*]
//	            groupby:[uvarint varint*] aggs:[uvarint (varint byte)*]
//	content  := tuples:[uvarint tuple*]                 (non-AGG)
//	          | groups:[uvarint (keyTuple states)*]     (AGG)
//
// Empty baggage serializes to zero bytes, matching the paper's default.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendSpec appends the encoding of spec; internal/wire ships pack specs
// inside advice programs with it.
func AppendSpec(buf []byte, spec SetSpec) []byte {
	buf = append(buf, byte(spec.Kind))
	buf = binary.AppendVarint(buf, int64(spec.N))
	buf = binary.AppendUvarint(buf, uint64(len(spec.Fields)))
	for _, f := range spec.Fields {
		buf = appendString(buf, f)
	}
	buf = binary.AppendUvarint(buf, uint64(len(spec.GroupBy)))
	for _, g := range spec.GroupBy {
		buf = binary.AppendVarint(buf, int64(g))
	}
	buf = binary.AppendUvarint(buf, uint64(len(spec.Aggs)))
	for _, a := range spec.Aggs {
		buf = binary.AppendVarint(buf, int64(a.Pos))
		buf = append(buf, byte(a.Fn))
	}
	return buf
}

// ReadSpec decodes what AppendSpec wrote. Specs arrive from peer processes,
// in baggage and in installs: one whose positions fall outside the field
// layout is rejected, so every decoded set satisfies the invariants Pack
// would have established and Unpack never indexes out of range on hostile
// bytes.
func ReadSpec(r *tuple.Reader) SetSpec { return readSpec(r, false) }

// readSpec is ReadSpec; with borrow, the field names alias the Reader's
// buffer.
func readSpec(r *tuple.Reader, borrow bool) SetSpec {
	fields := r.Strings
	if borrow {
		fields = r.BorrowStrings
	}
	spec := SetSpec{Kind: SetKind(r.Byte()), N: int(r.Varint()), Fields: fields(), GroupBy: r.Ints()}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		spec.Aggs = append(spec.Aggs, AggField{Pos: int(r.Varint()), Fn: agg.Func(r.Byte())})
	}
	for _, g := range spec.GroupBy {
		if g < 0 || g >= len(spec.Fields) {
			r.Fail(fmt.Errorf("baggage: group-by position %d outside %d fields", g, len(spec.Fields)))
			return spec
		}
	}
	for _, a := range spec.Aggs {
		if a.Pos < 0 || a.Pos >= len(spec.Fields) {
			r.Fail(fmt.Errorf("baggage: agg position %d outside %d fields", a.Pos, len(spec.Fields)))
			return spec
		}
	}
	return spec
}

func appendSet(buf []byte, s *Set) []byte {
	buf = AppendSpec(buf, s.Spec)
	if s.Spec.Kind != Agg {
		buf = binary.AppendUvarint(buf, uint64(len(s.tuples)))
		for _, t := range s.tuples {
			buf = tuple.AppendTuple(buf, t)
		}
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.order)))
	for _, key := range s.order {
		g := s.groups[key]
		buf = tuple.AppendTuple(buf, g.keyVals)
		for _, st := range g.states {
			buf = st.Append(buf)
		}
	}
	return buf
}

// readSet decodes a set whose strings borrow the Reader's buffer and whose
// tuples are cut from one slab of values.
func readSet(r *tuple.Reader) *Set {
	spec := readSpec(r, true)
	n := r.Count()
	if r.Err() != nil {
		return nil
	}
	s := NewSet(spec)
	var values slab.Slab[tuple.Value]
	if spec.Kind != Agg {
		s.tuples = slices.Grow(s.tuples, n)[:n]
		for i := 0; i < n && r.Err() == nil; i++ {
			s.tuples[i] = r.SlabTuple(&values, n-i, true)
		}
		return s
	}
	keyPos := identity(len(spec.GroupBy))
	for i := 0; i < n && r.Err() == nil; i++ {
		keyVals := r.SlabTuple(&values, n-i, true)
		if len(keyVals) != len(spec.GroupBy) {
			r.Fail(fmt.Errorf("baggage: group key has %d values for %d group-by fields",
				len(keyVals), len(spec.GroupBy)))
		}
		g := &group{keyVals: keyVals, states: make([]*agg.State, 0, len(spec.Aggs))}
		for range spec.Aggs {
			st := agg.Read(r)
			g.states = append(g.states, &st)
		}
		if r.Err() != nil {
			return nil
		}
		key := keyVals.Key(keyPos)
		s.groups[key] = g
		s.order = append(s.order, key)
	}
	s.recomputeBytes()
	return s
}

// identity returns [0, 1, ..., n-1].
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func encodeInstance(buf []byte, in *instance) []byte {
	buf = binary.AppendUvarint(buf, in.nonce)
	buf = binary.AppendUvarint(buf, uint64(len(in.slots)))
	for _, sl := range in.slots {
		buf = appendString(buf, sl.name)
		buf = appendSet(buf, sl.set)
	}
	return buf
}

func readInstance(r *tuple.Reader, in *instance) {
	in.nonce = r.Uvarint()
	n := r.Count()
	in.slots = make([]slot, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		in.slots = append(in.slots, slot{name: r.Borrow(), set: readSet(r)})
	}
}

// decodeInstances decodes baggage whose names and string values borrow
// buf, so buf must never be written after; the first instance and the
// list share one allocation.
func decodeInstances(buf []byte) ([]*instance, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	r := tuple.NewReader(buf)
	n := r.Count()
	var insts []*instance
	for i := 0; i < n && r.Err() == nil; i++ {
		if i == 0 {
			insts = new(head).open(n)
		} else {
			insts = append(insts, new(instance))
		}
		readInstance(&r, insts[i])
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rest := r.Rest(); len(rest) != 0 {
		return nil, fmt.Errorf("baggage: %d trailing bytes", len(rest))
	}
	return insts, nil
}

// appendInstances appends the encoding of decoded, non-empty baggage.
func (b *Baggage) appendInstances(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b.insts)))
	for _, in := range b.insts {
		buf = encodeInstance(buf, in)
	}
	return buf
}

// Serialize renders the baggage to bytes. Empty baggage serializes to nil
// (zero bytes). Baggage that was deserialized and never modified returns
// the original bytes without re-encoding (lazy round-trip).
func (b *Baggage) Serialize() []byte {
	if b == nil {
		return nil
	}
	var out []byte
	switch {
	case b.raw != nil:
		out = make([]byte, len(b.raw))
		copy(out, b.raw)
	case len(b.insts) == 0:
	default:
		// Encode into a pooled staging buffer, then copy to an exact-size
		// result: one allocation per call (the escaping result itself)
		// instead of the log-many growth reallocations of a cold append.
		s := getScratch()
		buf := b.appendInstances(s.buf[:0])
		out = make([]byte, len(buf))
		copy(out, buf)
		s.buf = buf
		putScratch(s)
	}
	if m := meters.Load(); m != nil {
		m.Serializations.Inc()
		m.SerializedBytes.Add(int64(len(out)))
		m.Bytes.Observe(int64(len(out)))
	}
	return out
}

// Deserialize constructs baggage from bytes produced by Serialize (see
// Load).
func Deserialize(buf []byte) *Baggage {
	b := new(Baggage)
	b.Load(buf)
	return b
}

// ByteSize returns the serialized size of the baggage in bytes. Decoded
// baggage is measured by encoding into a pooled scratch buffer — the
// length is read and the bytes discarded — so sizing does not allocate a
// serialization and does not count as one in the telemetry.
func (b *Baggage) ByteSize() int {
	if b == nil {
		return 0
	}
	if b.raw != nil {
		return len(b.raw)
	}
	if len(b.insts) == 0 {
		return 0
	}
	s := getScratch()
	buf := b.appendInstances(s.buf[:0])
	n := len(buf)
	s.buf = buf
	putScratch(s)
	return n
}
