package baggage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/agg"
	"repro/internal/itc"
	"repro/internal/tuple"
)

// Wire format (all integers are varints unless noted):
//
//	baggage  := count:uvarint instance*
//	instance := stamp:itc count:uvarint slot*
//	slot     := name:str spec content
//	spec     := kind:byte n:varint fields:[uvarint str*]
//	            groupby:[uvarint varint*] aggs:[uvarint (varint byte)*]
//	content  := tuples:[uvarint tuple*]                 (non-AGG)
//	          | groups:[uvarint (keyTuple states)*]     (AGG)
//
// Empty baggage serializes to zero bytes, matching the paper's default.

var errTruncated = errors.New("baggage: truncated encoding")

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf)-k) < n {
		return "", nil, errTruncated
	}
	return string(buf[k : k+int(n)]), buf[k+int(n):], nil
}

func appendSpec(buf []byte, spec SetSpec) []byte {
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

func decodeSpec(buf []byte) (SetSpec, []byte, error) {
	var spec SetSpec
	if len(buf) == 0 {
		return spec, nil, errTruncated
	}
	spec.Kind = SetKind(buf[0])
	buf = buf[1:]
	n, k := binary.Varint(buf)
	if k <= 0 {
		return spec, nil, errTruncated
	}
	spec.N = int(n)
	buf = buf[k:]

	cnt, k := binary.Uvarint(buf)
	if k <= 0 {
		return spec, nil, errTruncated
	}
	buf = buf[k:]
	spec.Fields = make(tuple.Schema, 0, boundedCount(cnt, buf))
	for i := uint64(0); i < cnt; i++ {
		var f string
		var err error
		f, buf, err = decodeString(buf)
		if err != nil {
			return spec, nil, err
		}
		spec.Fields = append(spec.Fields, f)
	}

	cnt, k = binary.Uvarint(buf)
	if k <= 0 {
		return spec, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < cnt; i++ {
		g, k := binary.Varint(buf)
		if k <= 0 {
			return spec, nil, errTruncated
		}
		buf = buf[k:]
		spec.GroupBy = append(spec.GroupBy, int(g))
	}

	cnt, k = binary.Uvarint(buf)
	if k <= 0 {
		return spec, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < cnt; i++ {
		pos, k := binary.Varint(buf)
		if k <= 0 || len(buf) <= k {
			return spec, nil, errTruncated
		}
		fn := agg.Func(buf[k])
		buf = buf[k+1:]
		spec.Aggs = append(spec.Aggs, AggField{Pos: int(pos), Fn: fn})
	}
	// Baggage arrives from peer processes: reject specs whose positions
	// fall outside the field layout, so every decoded set satisfies the
	// invariants Pack would have established and Unpack never indexes out
	// of range on hostile bytes.
	for _, g := range spec.GroupBy {
		if g < 0 || g >= len(spec.Fields) {
			return spec, nil, fmt.Errorf("baggage: group-by position %d outside %d fields", g, len(spec.Fields))
		}
	}
	for _, a := range spec.Aggs {
		if a.Pos < 0 || a.Pos >= len(spec.Fields) {
			return spec, nil, fmt.Errorf("baggage: agg position %d outside %d fields", a.Pos, len(spec.Fields))
		}
	}
	return spec, buf, nil
}

func appendSet(buf []byte, s *Set) []byte {
	buf = appendSpec(buf, s.Spec)
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

func decodeSet(buf []byte) (*Set, []byte, error) {
	spec, buf, err := decodeSpec(buf)
	if err != nil {
		return nil, nil, err
	}
	s := NewSet(spec)
	cnt, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	if spec.Kind != Agg {
		s.tuples = make([]tuple.Tuple, 0, boundedCount(cnt, buf))
		for i := uint64(0); i < cnt; i++ {
			var t tuple.Tuple
			t, buf, err = tuple.DecodeTuple(buf)
			if err != nil {
				return nil, nil, err
			}
			s.tuples = append(s.tuples, t)
		}
		return s, buf, nil
	}
	keyPos := identity(len(spec.GroupBy))
	for i := uint64(0); i < cnt; i++ {
		var keyVals tuple.Tuple
		keyVals, buf, err = tuple.DecodeTuple(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(keyVals) != len(spec.GroupBy) {
			return nil, nil, fmt.Errorf("baggage: group key has %d values for %d group-by fields",
				len(keyVals), len(spec.GroupBy))
		}
		g := &group{keyVals: keyVals, states: make([]*agg.State, 0, len(spec.Aggs))}
		for range spec.Aggs {
			var st *agg.State
			st, buf, err = agg.Decode(buf)
			if err != nil {
				return nil, nil, err
			}
			g.states = append(g.states, st)
		}
		key := keyVals.Key(keyPos)
		s.groups[key] = g
		s.order = append(s.order, key)
	}
	s.recomputeBytes()
	return s, buf, nil
}

// boundedCount is a decoded element count as a preallocation hint, capped by
// what the buffer could possibly hold (one byte per element minimum):
// baggage arrives from peer processes, and a corrupt count must not balloon
// an allocation before the decode loop hits errTruncated.
func boundedCount(cnt uint64, buf []byte) int {
	return int(min(cnt, uint64(len(buf))))
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
	buf = itc.AppendStamp(buf, in.stamp)
	buf = binary.AppendUvarint(buf, in.nonce)
	buf = binary.AppendUvarint(buf, uint64(len(in.slots)))
	for _, sl := range in.slots {
		buf = appendString(buf, sl.name)
		buf = appendSet(buf, sl.set)
	}
	return buf
}

func decodeInstance(buf []byte) (*instance, []byte, error) {
	stamp, buf, err := itc.DecodeStamp(buf)
	if err != nil {
		return nil, nil, err
	}
	in := newInstance(stamp)
	nonce, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	in.nonce = nonce
	buf = buf[k:]
	cnt, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	in.slots = make([]slot, 0, boundedCount(cnt, buf))
	for i := uint64(0); i < cnt; i++ {
		var sl slot
		sl.name, buf, err = decodeString(buf)
		if err != nil {
			return nil, nil, err
		}
		sl.set, buf, err = decodeSet(buf)
		if err != nil {
			return nil, nil, err
		}
		in.slots = append(in.slots, sl)
	}
	return in, buf, nil
}

func decodeInstances(buf []byte) ([]*instance, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	cnt, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errTruncated
	}
	buf = buf[k:]
	insts := make([]*instance, 0, boundedCount(cnt, buf))
	for i := uint64(0); i < cnt; i++ {
		in, rest, err := decodeInstance(buf)
		if err != nil {
			return nil, err
		}
		insts = append(insts, in)
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("baggage: %d trailing bytes", len(buf))
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
	case !b.decoded:
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

// Deserialize constructs baggage from bytes produced by Serialize. The
// contents are decoded lazily on first access. A nil/empty buffer yields
// empty baggage.
func Deserialize(buf []byte) *Baggage {
	if len(buf) == 0 {
		return New()
	}
	raw := make([]byte, len(buf))
	copy(raw, buf)
	return &Baggage{raw: raw}
}

// ByteSize returns the serialized size of the baggage in bytes. Decoded
// baggage is measured by encoding into a pooled scratch buffer — the
// length is read and the bytes discarded — so sizing does not allocate a
// serialization and does not count as one in the telemetry.
func (b *Baggage) ByteSize() int {
	if b == nil {
		return 0
	}
	if !b.decoded {
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
