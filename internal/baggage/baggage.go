package baggage

import (
	"bytes"
	"context"
	"math/rand/v2"

	"repro/internal/tuple"
)

// newNonce draws an instance nonce: random, so that instances created
// anywhere never collide, with bit 63 set, so that every nonce encodes to
// the same ten-byte uvarint. Simulated RPCs charge virtual time per
// serialized byte, and a width that varied with the random draw would
// make every simulated timeline depend on it.
func newNonce() uint64 { return rand.Uint64() | 1<<63 }

// instance is one versioned baggage instance (§5). A Baggage holds one
// active instance — the only one its branch ever writes — and the frozen
// instances inherited from before branch points. The nonce is the
// instance's globally unique identity, and its only version: a frozen
// instance reached down both sides of a branch deduplicates by it at the
// rejoin, while distinct instances — even with the same contents — never
// do.
//
// A frozen instance, its slots' bytes and sets and every stored tuple are
// immutable and shared by all the Baggage values that inherited them,
// possibly on different goroutines; nothing may write through them.
type instance struct {
	nonce uint64
	slots []slot // in creation order, which is the serialized order
}

// slot is one named tuple set of an instance. It is its encoding — spec,
// then content, as on the wire — until a write that needs the set's
// decoded form (an AGG fold, RECENTN, an eviction, a merge at a join, a
// Pack of tuples the caller hands over) materializes it; then set holds
// the contents and spec, n and body are unused.
type slot struct {
	name string
	spec []byte // the spec's encoding
	n    int    // the tuples (AGG groups) body holds
	body []byte // their encodings back to back; never written in place, since decoded strings borrow it
	set  *Set
}

// kind returns the slot's set kind.
func (sl *slot) kind() SetKind {
	if sl.set != nil {
		return sl.set.Spec.Kind
	}
	return SetKind(sl.spec[0])
}

// len returns the stored tuples (groups for AGG sets).
func (sl *slot) len() int {
	if sl.set != nil {
		return sl.set.Len()
	}
	return sl.n
}

// cost returns the content cost in encoded bytes (see Set.CostBytes).
func (sl *slot) cost() int {
	if sl.set != nil {
		return sl.set.CostBytes()
	}
	return len(sl.body)
}

// materialize decodes an encoded slot into its set, for a write.
func (sl *slot) materialize() *Set {
	if sl.set == nil {
		sl.set = sl.decoded()
		sl.spec, sl.n, sl.body = nil, 0, nil
	}
	return sl.set
}

// clear empties the slot, returning the evicted content cost and tuple
// count.
func (sl *slot) clear() (bytes, tuples int) {
	if sl.set != nil {
		return sl.set.clear()
	}
	bytes, tuples = len(sl.body), sl.n
	sl.n, sl.body = 0, nil
	return bytes, tuples
}

// copy returns the slot for an instance of its own: writes to either
// never reach the other.
func (sl slot) copy() slot {
	if sl.set != nil {
		sl.set = sl.set.Clone()
	}
	sl.body = sl.body[:len(sl.body):len(sl.body)]
	return sl
}

// encodes reports whether a pack of kind keeps the tuple it is given as it
// is, so that an encoded slot takes the tuple's encoding.
func encodes(kind SetKind) bool { return kind <= Union && kind != RecentN && kind != Agg }

// head is a new active instance and the instance list it heads, in one
// object: a branch and a join each pay one allocation for both while the
// list fits inline. Its builder appends the rest of the list right after
// open; once a Baggage holds the list, nothing writes it.
type head struct {
	in     instance
	inline [3]*instance
}

// open makes h.in a new instance with a fresh nonce and returns a list
// holding it, with capacity for n instances.
func (h *head) open(n int) []*instance {
	h.in = instance{nonce: newNonce()}
	insts := h.inline[:0]
	if n > len(h.inline) {
		insts = make([]*instance, 0, n)
	}
	return append(insts, &h.in)
}

// slotted is a head with room for its instance's first two slots: a first
// pack and a decode pay one allocation for the instance, the list and the
// slot index.
type slotted struct {
	head
	room [2]slot
}

// openSlotted opens a slotted head (see head.open).
func openSlotted(n int) []*instance {
	h := new(slotted)
	insts := h.open(n)
	h.in.slots = h.room[:0]
	return insts
}

// lookup returns the slot stored under name, or nil. An instance holds a
// handful of slots: a scan beats a map and its allocations. The pointer is
// valid until the next slot is added.
func (in *instance) lookup(name string) *slot {
	for i := range in.slots {
		if in.slots[i].name == name {
			return &in.slots[i]
		}
	}
	return nil
}

// set returns the set stored under name, materialized for a write, and
// the conflicts it met: a slot that arrived under another spec is emptied
// into one of spec, and counts one (see PackStats.Conflicts).
func (in *instance) set(name string, spec SetSpec) (*Set, int64) {
	if sl := in.lookup(name); sl != nil {
		if s := sl.materialize(); s.Spec.Equal(spec) {
			return s, 0
		}
		sl.set = NewSet(spec)
		return sl.set, 1
	}
	s := NewSet(spec)
	in.slots = append(in.slots, slot{name: name, set: s})
	return s, 0
}

// clone copies an active instance; writes to the copy do not reach in.
func (in *instance) clone() *instance {
	c := &instance{nonce: in.nonce, slots: make([]slot, len(in.slots))}
	for i, sl := range in.slots {
		c.slots[i] = sl.copy()
	}
	return c
}

// Baggage is the per-request tuple container. The zero value (or New()) is
// empty baggage that serializes to zero bytes. Baggage is lazily
// deserialized: a Baggage loaded from bytes keeps them and only decodes
// them when a Pack/Unpack/Split/Join touches the contents, so processes
// that merely forward baggage pay no decode cost.
//
// Baggage is not safe for concurrent use; an execution branching into
// parallel work must call Split and give each branch its own Baggage.
type Baggage struct {
	raw    []byte      // a private copy of the wire bytes while not yet decoded, else nil; never written: decoded strings borrow it
	insts  []*instance // the active instance, then the frozen ones newest first; never written in place
	shared bool        // other Baggage values hold insts[0] too: copy it before writing
}

// New returns empty baggage.
func New() *Baggage {
	return &Baggage{}
}

func (b *Baggage) ensureDecoded() {
	if b.raw == nil {
		return
	}
	insts, err := decodeInstances(b.raw)
	if err != nil {
		// Corrupt baggage is dropped rather than poisoning the request;
		// monitoring must never break the application.
		insts = nil
	}
	b.insts = insts
	b.raw = nil
}

// Load replaces b's contents with a private copy of wire, decoded lazily
// on first access; the decoded strings borrow that copy, never wire, so the
// caller may reuse wire at once. Empty wire leaves b empty. RPC layers load the response
// baggage into the caller's in place, so context references to b stay
// valid.
func (b *Baggage) Load(wire []byte) {
	*b = Baggage{}
	if len(wire) > 0 {
		b.raw = bytes.Clone(wire)
	}
}

// active returns the active instance for writing: created if the baggage
// is empty, copied first if it is shared.
func (b *Baggage) active() *instance {
	b.ensureDecoded()
	switch {
	case len(b.insts) == 0:
		b.insts = openSlotted(1)
	case b.shared:
		b.insts = append([]*instance{b.insts[0].clone()}, b.insts[1:]...)
		b.shared = false
	}
	return b.insts[0]
}

// Pack stores tuples into the active instance under the given slot,
// applying the spec's retention/aggregation semantics, and returns what it
// packed and the conflicts it met. The tuples are retained, not copied:
// the caller must not write to them afterwards.
func (b *Baggage) Pack(slot string, spec SetSpec, tuples ...tuple.Tuple) PackStats {
	set, conflicts := b.active().set(slot, spec)
	for _, t := range tuples {
		set.Pack(t)
	}
	return PackStats{Packed: int64(len(tuples)), Conflicts: conflicts}
}

// Unpack retrieves the tuples packed under slot, merging contributions from
// every instance (active and frozen) according to the slot's semantics.
// Instances are ordered newest (active) to oldest (earliest frozen), so
// RECENT kinds merge in that order while FIRST kinds merge oldest-first:
// a FIRST tuple packed before a branch point wins over one packed inside a
// branch, preserving the paper's "first event of the execution" semantics.
//
// The returned slice is the caller's; the tuples in it may be the stored
// ones, shared with this and other baggage, and must not be written.
func (b *Baggage) Unpack(name string) []tuple.Tuple {
	out, _, _ := b.AppendUnpack(nil, nil, name)
	return out
}

// AppendUnpack appends what Unpack returns to dst and returns the extended
// slice. Tuples it decodes — an encoded slot's, an AGG set's — have their
// values appended to vals, which it returns extended too, so that a caller
// with slices to reuse unpacks without allocating. A decoded string value
// borrows the baggage's bytes. It also returns the conflicts the merge of
// the instances' contributions met (see PackStats.Conflicts).
func (b *Baggage) AppendUnpack(dst []tuple.Tuple, vals tuple.Tuple, name string) (_ []tuple.Tuple, _ tuple.Tuple, conflicts int64) {
	b.ensureDecoded()
	var src *slot // the newest contribution
	contributions := 0
	for _, in := range b.insts {
		if sl := in.lookup(name); sl != nil {
			if src == nil {
				src = sl
			}
			contributions++
		}
	}
	if src == nil {
		return dst, vals, 0
	}
	// Budget tombstones suppress evicted content from the merged view:
	// without this, a group evicted on one branch would resurface from a
	// pre-split frozen copy and be double-counted against its tombstone.
	var evicted map[string]bool
	if name != DropSlot {
		whole, keys := b.evictions(name)
		if whole {
			return dst, vals, 0
		}
		if src.kind() == Agg {
			evicted = keys
		}
	}
	// One contribution with nothing to suppress is read where it is.
	if contributions > 1 || len(evicted) > 0 {
		kind := src.kind()
		var set *Set
		set, conflicts = b.merged(name, kind == First || kind == FirstN)
		for key := range evicted {
			set.removeGroup(key)
		}
		src = &slot{set: set}
	}
	dst, vals = src.appendTuples(dst, vals)
	return dst, vals, conflicts
}

// merged folds every instance's contribution to slot into a set of its
// own, newest first or oldest first, and returns the conflicts it met.
func (b *Baggage) merged(name string, oldestFirst bool) (acc *Set, conflicts int64) {
	for i := range b.insts {
		if oldestFirst {
			i = len(b.insts) - 1 - i
		}
		switch sl := b.insts[i].lookup(name); {
		case sl == nil:
		case acc == nil && sl.set != nil:
			acc = sl.set.Clone()
		case acc == nil:
			acc = sl.decoded()
		default:
			conflicts += acc.Merge(sl.decoded())
		}
	}
	return acc, conflicts
}

// TupleCount returns the total number of stored tuples (groups for AGG
// sets) across all instances — the paper's cost metric for propagation.
func (b *Baggage) TupleCount() int {
	b.ensureDecoded()
	total := 0
	for _, in := range b.insts {
		for i := range in.slots {
			total += in.slots[i].len()
		}
	}
	return total
}

// Split divides the baggage for a branching execution. The receiver's
// active instance is frozen and shared by both sides; each side gets a new
// empty active instance of its own, so tuples packed by one branch are
// invisible to the other until Join. Empty baggage splits into two empty
// baggages: there is nothing to freeze, and a branch's first Pack opens its
// instance. The receiver should not be used after Split; if it is, it
// reads what it held and its first write copies the frozen instance, so
// neither branch sees or serializes the difference.
func (b *Baggage) Split() (*Baggage, *Baggage) {
	l, r := b.split(nil)
	return &l.b, &r.b
}

// split returns the two branches as nodes over ctx (nil for Split).
func (b *Baggage) split(ctx context.Context) (*branch, *branch) {
	b.ensureDecoded()
	b.shared = len(b.insts) > 0
	fork := new([2]branch) // both branches are one object
	for i := range fork {
		fork[i].Context = ctx
		if len(b.insts) > 0 {
			fork[i].b.insts = append(fork[i].h.open(1+len(b.insts)), b.insts...)
		}
	}
	return &fork[0], &fork[1]
}

// Join merges the baggage of two rejoining branches: the active instances'
// contents merge into a new active instance, and frozen instances from
// both sides are kept, the first of each nonce, in a list of its own.
// Neither argument's contents are written. A nil argument is empty
// baggage, and joining empty baggage to b gives a copy of b that shares
// b's active instance: whichever of the two writes first copies it.
func Join(a, b *Baggage) *Baggage {
	j, _ := join(nil, a, b)
	return &j.b
}

// join returns the joined baggage as a node over ctx (nil for Join), and
// the conflicts the merge of the active instances met.
func join(ctx context.Context, a, b *Baggage) (j *branch, conflicts int64) {
	j = &branch{node: node{Context: ctx}}
	switch {
	case b.empty():
		j.b = a.share()
		return j, 0
	case a.empty():
		j.b = b.share()
		return j, 0
	}
	insts := j.h.open(len(a.insts) + len(b.insts) - 1)
	merged := insts[0]
	for _, src := range [2]*instance{a.insts[0], b.insts[0]} {
		for i := range src.slots {
			sl := &src.slots[i]
			if dst := merged.lookup(sl.name); dst != nil {
				conflicts += dst.materialize().Merge(sl.decoded())
			} else {
				merged.slots = append(merged.slots, sl.copy())
			}
		}
	}
	for _, frozen := range [2][]*instance{a.insts[1:], b.insts[1:]} {
	next:
		for _, in := range frozen {
			for _, have := range insts[1:] {
				if have.nonce == in.nonce {
					continue next
				}
			}
			insts = append(insts, in)
		}
	}
	j.b.insts = insts
	return j, conflicts
}

// empty reports whether b (nil included) holds no instance, decoding it.
func (b *Baggage) empty() bool {
	if b == nil {
		return true
	}
	b.ensureDecoded()
	return len(b.insts) == 0
}

// share returns a copy of b (nil is empty), and marks both b and the copy
// shared, so that each copies the active instance before its first write.
func (b *Baggage) share() Baggage {
	if b == nil {
		return Baggage{}
	}
	b.shared = len(b.insts) > 0
	return *b
}

// ContextKey is the context key of the request's *Baggage, exported so that
// a context carrying several request-scoped values in one node can answer
// for it.
type ContextKey struct{}

// NewContext returns a context carrying b. This is the Go analog of the
// paper's thread-local baggage storage.
func NewContext(ctx context.Context, b *Baggage) context.Context {
	return context.WithValue(ctx, ContextKey{}, b)
}

// FromContext extracts the baggage from ctx, or nil if none is attached.
func FromContext(ctx context.Context) *Baggage {
	b, _ := ctx.Value(ContextKey{}).(*Baggage)
	return b
}

// node is a context carrying baggage by value: a request that gains
// baggage pays for one object, the node, not for a node and a *Baggage.
type node struct {
	context.Context
	b Baggage
}

// branch is a node that also holds the active instance and instance list
// its baggage was split or joined into, so that a join is one object, and
// a split's two branches are one more. Split and Join hand out the
// *Baggage inside it.
type branch struct {
	node
	h head
}

func (c *node) Value(key any) any {
	if _, ok := key.(ContextKey); ok {
		return &c.b
	}
	return c.Context.Value(key)
}

// ExtractContext returns a context carrying baggage loaded from wire (see
// Load): empty baggage when wire is empty.
func ExtractContext(ctx context.Context, wire []byte) context.Context {
	c := &node{Context: ctx}
	c.b.Load(wire)
	return c
}

// SplitContexts divides ctx's baggage (see Split) and returns contexts for
// the two branches, each carrying its half. Without baggage both are ctx.
func SplitContexts(ctx context.Context) (context.Context, context.Context) {
	b := FromContext(ctx)
	if b == nil {
		return ctx, ctx
	}
	return b.split(ctx)
}

// JoinContext returns ctx carrying the Join of a's and b's baggage; ctx
// itself when neither carries any. It also returns the conflicts the
// merge met (see PackStats.Conflicts).
func JoinContext(ctx, a, b context.Context) (context.Context, int64) {
	ab, bb := FromContext(a), FromContext(b)
	if ab == nil && bb == nil {
		return ctx, 0
	}
	return join(ctx, ab, bb)
}
