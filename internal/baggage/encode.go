package baggage

import (
	"bytes"
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
// An encoded slot keeps its spec and the bytes after its content's count
// as they are on the wire, so serializing it is concatenation.

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
func ReadSpec(r *tuple.Reader) SetSpec {
	from := r.Rest()
	checkSpec(r)
	if r.Err() != nil {
		return SetSpec{}
	}
	spec := tuple.NewReader(from)
	return decodeSpec(&spec, false)
}

// checkSpec reads a spec without building it and fails r if a position
// falls outside its fields. It returns the kind, the field count and the
// numbers of group-by and aggregated positions.
func checkSpec(r *tuple.Reader) (kind SetKind, width, keys, aggs int) {
	kind = SetKind(r.Byte())
	r.Varint()
	width = r.Count()
	for i := 0; i < width && r.Err() == nil; i++ {
		r.Borrow()
	}
	pos := func() {
		if p := r.Varint(); p < 0 || p >= int64(width) {
			r.Fail(fmt.Errorf("baggage: position %d outside %d fields", p, width))
		}
	}
	keys = r.Count()
	for i := 0; i < keys && r.Err() == nil; i++ {
		pos()
	}
	aggs = r.Count()
	for i := 0; i < aggs && r.Err() == nil; i++ {
		pos()
		r.Byte()
	}
	return kind, width, keys, aggs
}

// decodeSpec builds a spec checkSpec accepted; with borrow, the field
// names alias the Reader's buffer.
func decodeSpec(r *tuple.Reader, borrow bool) SetSpec {
	fields := r.Strings
	if borrow {
		fields = r.BorrowStrings
	}
	spec := SetSpec{Kind: SetKind(r.Byte()), N: int(r.Varint()), Fields: fields(), GroupBy: r.Ints()}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		spec.Aggs = append(spec.Aggs, AggField{Pos: int(r.Varint()), Fn: agg.Func(r.Byte())})
	}
	return spec
}

// appendSet appends a decoded set's spec and content.
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

// readSlot indexes one slot of r's buffer: its name, spec and content are
// views of the buffer, checked as a decode checks them but not decoded. A
// tuple's width must be its spec's field count (an AGG group key's, its
// group-by count), and an AGG slot holds each group key once, so an
// encoded slot holds what its decoded set would re-encode to.
func readSlot(r *tuple.Reader) slot {
	sl := slot{name: r.Borrow()}
	from := r.Rest()
	kind, width, keys, aggs := checkSpec(r)
	sl.spec = consumed(from, r)
	sl.n = r.Count()
	from = r.Rest()
	var seen map[string]bool // AGG group keys
	var st agg.State         // each AGG state, read to be checked
	if kind == Agg {
		width = keys
		if sl.n > 1 {
			seen = make(map[string]bool, sl.n)
		}
	}
	for i := 0; i < sl.n && r.Err() == nil; i++ {
		key := r.Rest()
		if got := r.Count(); got != width {
			r.Fail(fmt.Errorf("baggage: %d-value tuple in a slot of %d", got, width))
		}
		for j := 0; j < width && r.Err() == nil; j++ {
			r.BorrowValue()
		}
		if kind != Agg {
			continue
		}
		if seen != nil && r.Err() == nil {
			k := groupKey(consumed(key, r))
			if seen[k] {
				r.Fail(fmt.Errorf("baggage: group key %x twice", k))
			}
			seen[k] = true
		}
		for j := 0; j < aggs && r.Err() == nil; j++ {
			st.Read(r)
		}
	}
	sl.body = consumed(from, r)
	return sl
}

// consumed returns what r read of from, capacity-clipped so that an
// append to it never writes the bytes after it.
func consumed(from []byte, r *tuple.Reader) []byte {
	n := len(from) - len(r.Rest())
	return from[:n:n]
}

// decoded returns the slot's contents as a set: its own once materialized
// (which the caller must not write), else a new one decoded from its
// bytes, whose strings borrow them and whose tuples are cut from one slab.
func (sl *slot) decoded() *Set {
	if sl.set != nil {
		return sl.set
	}
	r := tuple.NewReader(sl.spec)
	s := NewSet(decodeSpec(&r, true))
	r = tuple.NewReader(sl.body)
	var values slab.Slab[tuple.Value]
	if s.Spec.Kind != Agg {
		s.tuples = slices.Grow(s.tuples, sl.n)[:sl.n]
		for i := range s.tuples {
			s.tuples[i] = r.SlabTuple(&values, sl.n-i, true)
		}
		s.bytes = len(sl.body)
		return s
	}
	for i := 0; i < sl.n; i++ {
		from := r.Rest()
		g := &group{keyVals: r.SlabTuple(&values, sl.n-i, true), states: make([]*agg.State, 0, len(s.Spec.Aggs))}
		key := groupKey(consumed(from, &r))
		for range s.Spec.Aggs {
			st := new(agg.State)
			st.Read(&r)
			g.states = append(g.states, st)
		}
		s.groups[key] = g
		s.order = append(s.order, key)
	}
	s.recomputeBytes()
	return s
}

// groupKey returns the group key (see tuple.Key) of the encoded key tuple
// enc: its values' encodings, without their count.
func groupKey(enc []byte) string {
	r := tuple.NewReader(enc)
	r.Count()
	return string(r.Rest())
}

// add packs the projection of w onto src into an encoded slot as Set.Pack
// would pack it, writing its encoding and never the bytes already there:
// decoded strings borrow them.
func (sl *slot) add(spec SetSpec, w tuple.Tuple, src []int) {
	store, replace := admits(spec, sl.n, func() bool { return sl.holds(w, src) })
	if replace && sl.n > 0 {
		sl.n, sl.body = 0, nil
	}
	if !store {
		return
	}
	if sl.body == nil {
		sl.body = make([]byte, 0, tuple.SizeProjected(w, src))
	}
	sl.body = tuple.AppendProjected(sl.body, w, src)
	sl.n++
}

// holds reports whether an encoded slot stores a tuple equal to the
// projection of w onto src.
func (sl *slot) holds(w tuple.Tuple, src []int) bool {
	r := tuple.NewReader(sl.body)
	for i := 0; i < sl.n; i++ {
		k := r.Count()
		same := k == len(src)
		for j := 0; j < k; j++ {
			v := r.BorrowValue()
			same = same && v.Equal(w[src[j]])
		}
		if same {
			return true
		}
	}
	return false
}

// appendTuples appends the slot's contents to dst as Set.appendUnpack
// does; an encoded non-AGG slot's tuples are decoded into vals, their
// strings borrowing its bytes.
func (sl *slot) appendTuples(dst []tuple.Tuple, vals tuple.Tuple) ([]tuple.Tuple, tuple.Tuple) {
	if sl.set != nil || sl.kind() == Agg {
		return sl.decoded().appendUnpack(dst, vals)
	}
	dst, vals = slices.Grow(dst, sl.n), slices.Grow(vals, sl.n*sl.width())
	r := tuple.NewReader(sl.body)
	for i := 0; i < sl.n; i++ {
		at := len(vals)
		for k := r.Count(); k > 0; k-- {
			vals = append(vals, r.BorrowValue())
		}
		dst = append(dst, vals[at:len(vals):len(vals)])
	}
	return dst, vals
}

// newSlot returns an encoded slot holding no tuple, with room after its
// spec for size bytes of content in the same allocation.
func newSlot(name string, spec SetSpec, size int) slot {
	s := getScratch()
	s.buf = AppendSpec(s.buf[:0], spec)
	enc := append(make([]byte, 0, len(s.buf)+size), s.buf...)
	putScratch(s)
	k := len(enc)
	return slot{name: name, spec: enc[:k:k], body: enc[k:]}
}

// width returns an encoded slot's field count, which every tuple it
// holds has (see readSlot).
func (sl *slot) width() int {
	r := tuple.NewReader(sl.spec[1:])
	r.Varint()
	return r.Count()
}

// appendTo appends the slot's encoding.
func (sl *slot) appendTo(buf []byte) []byte {
	buf = appendString(buf, sl.name)
	if sl.set != nil {
		return appendSet(buf, sl.set)
	}
	buf = append(buf, sl.spec...)
	buf = binary.AppendUvarint(buf, uint64(sl.n))
	return append(buf, sl.body...)
}

// specIs reports whether an encoded slot's spec is spec: decoded specs are
// canonical, so equal specs have equal bytes.
func (sl *slot) specIs(spec SetSpec) bool {
	s := getScratch()
	s.buf = AppendSpec(s.buf[:0], spec)
	same := bytes.Equal(sl.spec, s.buf)
	putScratch(s)
	return same
}

func readInstance(r *tuple.Reader, in *instance) {
	in.nonce = r.Uvarint()
	n := r.Count()
	if n > cap(in.slots) {
		in.slots = make([]slot, 0, n)
	}
	for ; n > 0 && r.Err() == nil; n-- {
		in.slots = append(in.slots, readSlot(r))
	}
}

// decodeInstances indexes baggage whose names, specs and contents are
// views of buf, so buf must never be written after; the first instance,
// the list and the first slots of its index share one allocation.
func decodeInstances(buf []byte) ([]*instance, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	r := tuple.NewReader(buf)
	n := r.Count()
	if n == 0 { // baggage without instances is zero bytes
		r.Fail(tuple.ErrNonCanonical)
	}
	var insts []*instance
	for i := 0; i < n && r.Err() == nil; i++ {
		if i == 0 {
			insts = openSlotted(n)
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
		buf = binary.AppendUvarint(buf, in.nonce)
		buf = binary.AppendUvarint(buf, uint64(len(in.slots)))
		for i := range in.slots {
			buf = in.slots[i].appendTo(buf)
		}
	}
	return buf
}

// Serialize renders the baggage to bytes. Empty baggage serializes to nil
// (zero bytes). Baggage that was deserialized and never modified returns
// the original bytes without re-encoding (lazy round-trip).
func (b *Baggage) Serialize() []byte {
	switch {
	case b == nil:
		return nil
	case b.raw != nil:
		return bytes.Clone(b.raw)
	case len(b.insts) == 0:
		return nil
	}
	// Encode into a pooled staging buffer, then copy to an exact-size
	// result: one allocation per call (the escaping result itself) instead
	// of the log-many growth reallocations of a cold append.
	s := getScratch()
	s.buf = b.appendInstances(s.buf[:0])
	out := bytes.Clone(s.buf)
	putScratch(s)
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
// serialization.
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
