package baggage

import (
	"bytes"
	"context"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// Meters are the package's self-telemetry instruments, attached with
// SetTelemetry. Baggage values are context-scoped and have no registry of
// their own, so the meters are process-global and gated behind one atomic
// pointer load; while unattached (the default) every hook is a single
// predictable branch. Budget evictions are not metered here: PackStats
// carries them to the agent, which counts them as agent.baggage.dropped.*.
type Meters struct {
	Serializations  *telemetry.Counter   // Serialize calls
	SerializedBytes *telemetry.Counter   // total bytes produced by Serialize
	TuplesPacked    *telemetry.Counter   // tuples stored via Pack
	TuplesUnpacked  *telemetry.Counter   // tuples returned by Unpack
	Splits          *telemetry.Counter   // Split calls
	Joins           *telemetry.Counter   // Joins that actually merged two sides
	Bytes           *telemetry.Histogram // per-Serialize size distribution
	PackRefused     *telemetry.Counter   // tuples refused by tombstones (PackBudgeted)
	MergeConflicts  *telemetry.Counter   // slot contents dropped for a mismatched spec, at a merge or a pack
	PoolReuses      *telemetry.Counter   // pack/serialize scratch buffers served from the pool
}

var meters atomic.Pointer[Meters]

// SetTelemetry attaches process-wide baggage telemetry under "baggage.*"
// names. Pass nil to detach.
func SetTelemetry(t *telemetry.Registry) {
	if t == nil {
		meters.Store(nil)
		return
	}
	meters.Store(&Meters{
		Serializations:  t.Counter("baggage.serializations"),
		SerializedBytes: t.Counter("baggage.serialized.bytes"),
		TuplesPacked:    t.Counter("baggage.tuples.packed"),
		TuplesUnpacked:  t.Counter("baggage.tuples.unpacked"),
		Splits:          t.Counter("baggage.splits"),
		Joins:           t.Counter("baggage.joins"),
		Bytes:           t.Histogram("baggage.bytes"),
		PackRefused:     t.Counter("baggage.budget.refused"),
		MergeConflicts:  t.Counter("baggage.merge.conflicts"),
		PoolReuses:      t.Counter("baggage.pool.reuses"),
	})
}

// nonceBase randomizes instance nonces per process so that instances
// created in different processes never collide; the counter makes them
// unique within a process. Bit 63 is always set, so every nonce encodes
// to the same ten-byte uvarint: simulated RPCs charge virtual time per
// serialized byte, and a width that varied with the random draw would
// make every simulated timeline depend on it.
var (
	nonceBase    = func() uint64 { return uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15 | 1<<63 }()
	nonceCounter atomic.Uint64
)

func newNonce() uint64 { return nonceBase ^ nonceCounter.Add(1) }

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

// set returns the set stored under name, materialized for a write. A slot
// that arrived under another spec is emptied into one of spec (see
// conflict).
func (in *instance) set(name string, spec SetSpec) *Set {
	if sl := in.lookup(name); sl != nil {
		if s := sl.materialize(); s.Spec.Equal(spec) {
			return s
		}
		conflict()
		sl.set = NewSet(spec)
		return sl.set
	}
	s := NewSet(spec)
	in.slots = append(in.slots, slot{name: name, set: s})
	return s
}

// conflict counts a slot whose spec disagreed with the side it met: a
// merge drops the other side, and a pack replaces what a peer stored
// under its own name. Baggage arrives from peer processes, and bytes from
// a corrupt or hostile one must never panic the traced application; the
// packer's spec is the one its query reads the slot with.
func conflict() {
	if m := meters.Load(); m != nil {
		m.MergeConflicts.Inc()
	}
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
// applying the spec's retention/aggregation semantics. The tuples are
// retained, not copied: the caller must not write to them afterwards.
func (b *Baggage) Pack(slot string, spec SetSpec, tuples ...tuple.Tuple) {
	set := b.active().set(slot, spec)
	for _, t := range tuples {
		set.Pack(t)
	}
	if m := meters.Load(); m != nil {
		m.TuplesPacked.Add(int64(len(tuples)))
	}
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
	out, _ := b.AppendUnpack(nil, nil, name)
	return out
}

// AppendUnpack appends what Unpack returns to dst and returns the extended
// slice. Tuples it decodes — an encoded slot's, an AGG set's — have their
// values appended to vals, which it returns extended too, so that a caller
// with slices to reuse unpacks without allocating. A decoded string value
// borrows the baggage's bytes.
func (b *Baggage) AppendUnpack(dst []tuple.Tuple, vals tuple.Tuple, name string) ([]tuple.Tuple, tuple.Tuple) {
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
		return dst, vals
	}
	// Budget tombstones suppress evicted content from the merged view:
	// without this, a group evicted on one branch would resurface from a
	// pre-split frozen copy and be double-counted against its tombstone.
	var evicted map[string]bool
	if name != DropSlot {
		whole, keys := b.evictions(name)
		if whole {
			return dst, vals
		}
		if src.kind() == Agg {
			evicted = keys
		}
	}
	// One contribution with nothing to suppress is read where it is.
	if contributions > 1 || len(evicted) > 0 {
		kind := src.kind()
		src = &slot{set: b.merged(name, kind == First || kind == FirstN)}
		for key := range evicted {
			src.set.removeGroup(key)
		}
	}
	out, vals := src.appendTuples(dst, vals)
	if m := meters.Load(); m != nil {
		m.TuplesUnpacked.Add(int64(len(out) - len(dst)))
	}
	return out, vals
}

// merged folds every instance's contribution to slot into a set of its
// own, newest first or oldest first.
func (b *Baggage) merged(name string, oldestFirst bool) *Set {
	var acc *Set
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
			acc.Merge(sl.decoded())
		}
	}
	return acc
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
	if m := meters.Load(); m != nil {
		m.Splits.Inc()
	}
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
// Neither argument is written. A nil argument is empty baggage, and
// joining empty baggage to b gives a copy of b whose first write copies
// the active instance, so the result and b never write one instance.
func Join(a, b *Baggage) *Baggage {
	return &join(nil, a, b).b
}

// join returns the joined baggage as a node over ctx (nil for Join).
func join(ctx context.Context, a, b *Baggage) *branch {
	j := &branch{node: node{Context: ctx}}
	switch {
	case b.empty():
		j.b = a.share()
		return j
	case a.empty():
		j.b = b.share()
		return j
	}
	if m := meters.Load(); m != nil {
		m.Joins.Inc()
	}
	insts := j.h.open(len(a.insts) + len(b.insts) - 1)
	merged := insts[0]
	for _, src := range [2]*instance{a.insts[0], b.insts[0]} {
		for i := range src.slots {
			sl := &src.slots[i]
			if dst := merged.lookup(sl.name); dst != nil {
				dst.materialize().Merge(sl.decoded())
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
	return j
}

// empty reports whether b (nil included) holds no instance, decoding it.
func (b *Baggage) empty() bool {
	if b == nil {
		return true
	}
	b.ensureDecoded()
	return len(b.insts) == 0
}

// share returns a copy of b (nil is empty) that copies the active instance
// before its first write.
func (b *Baggage) share() Baggage {
	if b == nil {
		return Baggage{}
	}
	c := *b
	c.shared = len(c.insts) > 0
	return c
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
// itself when neither carries any.
func JoinContext(ctx, a, b context.Context) context.Context {
	ab, bb := FromContext(a), FromContext(b)
	if ab == nil && bb == nil {
		return ctx
	}
	return join(ctx, ab, bb)
}
