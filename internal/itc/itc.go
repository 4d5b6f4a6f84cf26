// Package itc implements Interval Tree Clocks (Almeida, Baquero, Fonte —
// OPODIS 2008), the causality-tracking mechanism Pivot Tracing uses to
// version baggage across branching and rejoining executions.
//
// A Stamp pairs an ID tree (which interval of the identifier space this
// replica owns) with an Event tree (a variable-resolution counter map).
// Fork splits a stamp into two with disjoint IDs; Join merges two stamps;
// Event advances the clock in the stamp's own interval. Pivot Tracing's
// baggage uses the ID half to tag baggage instances on each side of a
// branch with globally unique, non-overlapping identifiers (§5 of the
// paper), and joins them when branches rejoin.
package itc

import (
	"fmt"
	"strings"
)

// Every tree in this package is immutable once built: operations return
// new roots that share unchanged subtrees (and whole histories) with their
// inputs, so stamps are copied by value and never deep-copied. Callers must
// not write to the exported node fields.

// ID is a node of an interval tree identifier: a leaf owning all (1) or none
// (0) of its interval, or an interior node splitting the interval in two.
type ID struct {
	// Leaf is true for leaf nodes; Val is then 0 or 1.
	Leaf bool
	Val  int
	L, R *ID
}

// The two ID leaves, and the two halves of the seed ID that the first fork
// of every request hands out, are shared by every tree.
var (
	idZero  = &ID{Leaf: true, Val: 0}
	idOne   = &ID{Leaf: true, Val: 1}
	idLeft  = &ID{L: idOne, R: idZero}
	idRight = &ID{L: idZero, R: idOne}
)

func nodeID(l, r *ID) *ID  { return &ID{L: l, R: r} }
func (i *ID) isZero() bool { return i.Leaf && i.Val == 0 }
func (i *ID) isOne() bool  { return i.Leaf && i.Val == 1 }

// normNodeID is nodeID(l, r) normalized: (0,0) -> 0 and (1,1) -> 1, at
// every level.
func normNodeID(l, r *ID) *ID {
	if !l.Leaf {
		l = normNodeID(l.L, l.R)
	}
	if !r.Leaf {
		r = normNodeID(r.L, r.R)
	}
	if l.isZero() && r.isZero() {
		return idZero
	}
	if l.isOne() && r.isOne() {
		return idOne
	}
	return nodeID(l, r)
}

// split divides an ID into two disjoint IDs whose sum is the original.
func split(i *ID) (*ID, *ID) {
	switch {
	case i.isZero():
		return idZero, idZero
	case i.isOne():
		return idLeft, idRight
	case i.L.isZero():
		r1, r2 := split(i.R)
		return nodeID(idZero, r1), nodeID(idZero, r2)
	case i.R.isZero():
		l1, l2 := split(i.L)
		return nodeID(l1, idZero), nodeID(l2, idZero)
	default:
		return nodeID(i.L, idZero), nodeID(idZero, i.R)
	}
}

// sumID merges two disjoint IDs. It panics on overlapping IDs, which can
// only arise from misuse (joining a stamp with itself).
func sumID(a, b *ID) *ID {
	switch {
	case a.isZero():
		return b
	case b.isZero():
		return a
	case a.Leaf || b.Leaf:
		panic("itc: sum of overlapping IDs")
	default:
		return normNodeID(sumID(a.L, b.L), sumID(a.R, b.R))
	}
}

// Equal reports structural equality of two IDs.
func (i *ID) Equal(o *ID) bool {
	if i.Leaf != o.Leaf {
		return false
	}
	if i.Leaf {
		return i.Val == o.Val
	}
	return i.L.Equal(o.L) && i.R.Equal(o.R)
}

func (i *ID) String() string {
	if i.Leaf {
		return fmt.Sprintf("%d", i.Val)
	}
	return fmt.Sprintf("(%s,%s)", i.L, i.R)
}

// Event is a node of an event tree: a leaf counter, or an interior node with
// a base counter and two children holding increments.
type Event struct {
	Leaf bool
	N    uint64
	L, R *Event
}

// evZero is the history of a request that has recorded no event yet —
// every stamp baggage creates — shared by every tree.
var evZero = &Event{Leaf: true}

func leafEv(n uint64) *Event {
	if n == 0 {
		return evZero
	}
	return &Event{Leaf: true, N: n}
}
func nodeEv(n uint64, l, r *Event) *Event { return &Event{N: n, L: l, R: r} }

// lift adds m to the base of e, returning a new tree.
func lift(m uint64, e *Event) *Event {
	if m == 0 {
		return e
	}
	if e.Leaf {
		return leafEv(e.N + m)
	}
	return nodeEv(e.N+m, e.L, e.R)
}

// sink subtracts m from the base of e (m must not exceed the base).
func sink(m uint64, e *Event) *Event {
	if m == 0 {
		return e
	}
	if e.Leaf {
		return leafEv(e.N - m)
	}
	return nodeEv(e.N-m, e.L, e.R)
}

func evMin(e *Event) uint64 {
	if e.Leaf {
		return e.N
	}
	l, r := evMin(e.L), evMin(e.R)
	if r < l {
		l = r
	}
	return e.N + l
}

func evMax(e *Event) uint64 {
	if e.Leaf {
		return e.N
	}
	l, r := evMax(e.L), evMax(e.R)
	if r > l {
		l = r
	}
	return e.N + l
}

// normEv canonicalizes an event tree: equal leaf children fold into the
// parent; otherwise the minimum of the children lifts into the base.
func normEv(e *Event) *Event {
	if e.Leaf {
		return e
	}
	l, r := normEv(e.L), normEv(e.R)
	if l.Leaf && r.Leaf && l.N == r.N {
		return leafEv(e.N + l.N)
	}
	m := evMin(l)
	if rm := evMin(r); rm < m {
		m = rm
	}
	return nodeEv(e.N+m, sink(m, l), sink(m, r))
}

// leqEv reports whether event tree a ≤ b pointwise.
func leqEv(a, b *Event) bool {
	switch {
	case a.Leaf && b.Leaf:
		return a.N <= b.N
	case a.Leaf:
		return a.N <= b.N
	case b.Leaf:
		return a.N <= b.N &&
			leqEv(lift(a.N, a.L), b) &&
			leqEv(lift(a.N, a.R), b)
	default:
		return a.N <= b.N &&
			leqEv(lift(a.N, a.L), lift(b.N, b.L)) &&
			leqEv(lift(a.N, a.R), lift(b.N, b.R))
	}
}

// joinEv merges two event trees, taking the pointwise maximum.
func joinEv(a, b *Event) *Event {
	switch {
	case a.Leaf && b.Leaf:
		if a.N >= b.N {
			return a
		}
		return b
	case a.Leaf:
		return joinEv(nodeEv(a.N, evZero, evZero), b)
	case b.Leaf:
		return joinEv(a, nodeEv(b.N, evZero, evZero))
	case a.N > b.N:
		return joinEv(b, a)
	default:
		d := b.N - a.N
		return normEv(nodeEv(a.N,
			joinEv(a.L, lift(d, b.L)),
			joinEv(a.R, lift(d, b.R))))
	}
}

// Equal reports structural equality of two event trees.
func (e *Event) Equal(o *Event) bool {
	if e.Leaf != o.Leaf {
		return false
	}
	if e.Leaf {
		return e.N == o.N
	}
	return e.N == o.N && e.L.Equal(o.L) && e.R.Equal(o.R)
}

func (e *Event) String() string {
	if e.Leaf {
		return fmt.Sprintf("%d", e.N)
	}
	return fmt.Sprintf("(%d,%s,%s)", e.N, e.L, e.R)
}

// fill inflates e in the interval owned by i (cheap event, no growth).
func fill(i *ID, e *Event) *Event {
	switch {
	case i.isZero():
		return e
	case i.isOne():
		return leafEv(evMax(e))
	case e.Leaf:
		return e
	case i.L.isOne():
		er := fill(i.R, e.R)
		m := evMax(e.L)
		if em := evMin(er); em > m {
			m = em
		}
		return normEv(nodeEv(e.N, leafEv(m), er))
	case i.R.isOne():
		el := fill(i.L, e.L)
		m := evMax(e.R)
		if em := evMin(el); em > m {
			m = em
		}
		return normEv(nodeEv(e.N, el, leafEv(m)))
	default:
		return normEv(nodeEv(e.N, fill(i.L, e.L), fill(i.R, e.R)))
	}
}

// grow inflates e in the interval owned by i by growing the tree, returning
// the new event and a cost used to choose the cheapest growth point.
func grow(i *ID, e *Event) (*Event, uint64) {
	const bigCost = 1 << 32
	if e.Leaf {
		if i.isOne() {
			return leafEv(e.N + 1), 0
		}
		ev, c := grow(i, nodeEv(e.N, leafEv(0), leafEv(0)))
		return ev, c + bigCost
	}
	switch {
	case i.Leaf && i.isOne():
		// Owning the whole subtree: fill would have applied; grow left.
		ev, c := grow(idOne, e.L)
		return nodeEv(e.N, ev, e.R), c + 1
	case i.Leaf:
		panic("itc: grow with zero ID")
	case i.L.isZero():
		er, c := grow(i.R, e.R)
		return nodeEv(e.N, e.L, er), c + 1
	case i.R.isZero():
		el, c := grow(i.L, e.L)
		return nodeEv(e.N, el, e.R), c + 1
	default:
		el, cl := grow(i.L, e.L)
		er, cr := grow(i.R, e.R)
		if cl <= cr {
			return nodeEv(e.N, el, e.R), cl + 1
		}
		return nodeEv(e.N, e.L, er), cr + 1
	}
}

// Stamp is an interval tree clock: an identity and an event history. It is
// two pointers into immutable trees; copy it by value.
type Stamp struct {
	id *ID
	ev *Event
}

// Seed returns the initial stamp owning the entire ID space.
func Seed() Stamp {
	return Stamp{id: idOne, ev: evZero}
}

// Fork splits s into two stamps with disjoint IDs and the same history.
func (s Stamp) Fork() (Stamp, Stamp) {
	l, r := split(s.id)
	return Stamp{id: l, ev: s.ev}, Stamp{id: r, ev: s.ev}
}

// Join merges two stamps: IDs are summed, histories are joined pointwise.
func Join(a, b Stamp) Stamp {
	return Stamp{id: sumID(a.id, b.id), ev: joinEv(a.ev, b.ev)}
}

// Event returns a new stamp whose history records one new event in s's
// interval.
func (s Stamp) Event() Stamp {
	if s.id.isZero() {
		panic("itc: event on anonymous stamp")
	}
	filled := fill(s.id, s.ev)
	if !filled.Equal(s.ev) {
		return Stamp{id: s.id, ev: filled}
	}
	grown, _ := grow(s.id, s.ev)
	return Stamp{id: s.id, ev: normEv(grown)}
}

// Leq reports whether s's history is causally dominated by o's.
func (s Stamp) Leq(o Stamp) bool { return leqEv(s.ev, o.ev) }

// Peek returns an anonymous stamp (zero ID) carrying s's history, used for
// message timestamps.
func (s Stamp) Peek() Stamp {
	return Stamp{id: idZero, ev: s.ev}
}

// ID returns the stamp's identifier tree.
func (s Stamp) ID() *ID { return s.id }

// Equal reports structural equality of two stamps.
func (s Stamp) Equal(o Stamp) bool {
	return s.id.Equal(o.id) && s.ev.Equal(o.ev)
}

func (s Stamp) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(s.id.String())
	b.WriteString(", ")
	b.WriteString(s.ev.String())
	b.WriteByte(')')
	return b.String()
}
