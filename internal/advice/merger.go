package advice

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/slab"
	"repro/internal/tuple"
)

// Group is one group-by bucket of partially aggregated results. Groups are
// the unit of transport between agents and the query frontend: partial
// aggregate states merge correctly across processes (unlike final values —
// an average of averages is not the average).
type Group struct {
	Key    string
	Rep    tuple.Tuple // representative working tuple for non-agg columns
	States []agg.State
}

// Clone deep-copies the group.
func (g *Group) Clone() *Group {
	return &Group{Key: g.Key, Rep: g.Rep.Clone(), States: slices.Clone(g.States)}
}

// Limits bounds a merger's memory: group-by cardinality and raw-row
// count. Both default on — an unbounded GROUP BY over a high-cardinality
// key (or a raw query that never drains) must not grow agent memory
// without bound. Zero fields select the defaults; negative fields disable
// that cap. Every capped row is counted, never silently lost.
type Limits struct {
	MaxGroups int
	MaxRaws   int
}

// Unbounded disables both caps: for mergers whose inputs were already
// capped where their tuples were folded (combiner tiers).
var Unbounded = Limits{MaxGroups: -1, MaxRaws: -1}

// Limit defaults.
const (
	DefaultMaxGroups = 16384
	DefaultMaxRaws   = 65536
)

// OverflowKey identifies the overflow group that absorbs aggregate rows
// beyond the group cap. The NUL prefix keeps it out of every real group's
// key space (keys are encoded tuple values, which never start with NUL).
const OverflowKey = "\x00overflow"

func (l Limits) maxGroups() int { return cmp.Or(l.MaxGroups, DefaultMaxGroups) }

func (l Limits) maxRaws() int { return cmp.Or(l.MaxRaws, DefaultMaxRaws) }

// Merger is the report-merge algebra, written once: partial groups in
// first-seen order, raw rows, a set of baggage eviction tombstones, and
// the Limits/overflow accounting that bounds them. Partial aggregate
// states merge associatively and commutatively (inexact sampling weights
// ride inside agg.State), raw rows and tombstones union, so folding the
// same tuples in-process, at any number of intermediate tiers, and once
// more at the frontend yields identical results. Agents (through
// Accumulator), combiner tiers and the frontend all hold this one type.
//
// Reports come in one way, Merge (an Accumulator also folds working tuples
// in), and go out one way: Groups, Raws and Drops. What comes out is
// published and may be aliased from then on, so a merger never writes to a
// group, state, value or raw-row slice it has handed out once Handoff has
// let go of it: the rows live in slabs that are dropped with the interval,
// not recycled. A Merger is not safe for concurrent use.
type Merger struct {
	// Op is the query's emit operation. It shapes new and overflow groups,
	// validates incoming ones, and materializes Rows. A combiner tier does
	// not know the query and leaves it nil: its mergers learn the group
	// shape from the first group they see, and must be Unbounded.
	Op     *EmitOp
	limits Limits
	groups map[string]*Group
	order  []*Group
	raws   []tuple.Tuple
	drops  baggage.DropSet

	// empty is one empty state per aggregate column of Op: the states of a
	// new group, and the shape checkShape holds incoming ones to. Nil
	// without an Op.
	empty []agg.State

	// The groups the merger creates, their states, their Rep values, and
	// the bytes of their keys and Rep strings.
	groupSlab slab.Slab[Group]
	stateSlab slab.Slab[agg.State]
	valueSlab slab.Slab[tuple.Value]
	byteSlab  slab.Slab[byte]

	// Cumulative eviction accounting; survives Handoff so heartbeats can
	// report exact totals for the query's lifetime.
	rawsDropped      int64
	groupsOverflowed int64
}

// NewMerger returns an empty merger for op (nil at a combiner tier, which
// requires Unbounded limits) with the given limits (zero value = defaults).
func NewMerger(op *EmitOp, l Limits) *Merger {
	m := &Merger{Op: op, limits: l, groups: make(map[string]*Group)}
	if op != nil {
		for _, col := range op.Cols {
			if col.IsAgg {
				m.empty = append(m.empty, agg.Make(col.Fn))
			}
		}
	}
	return m
}

// Handoff hands the merger's contents over whole, as a drained merger,
// and carries on empty: same query, limits and running eviction counts,
// its slabs sized from what it held (see slab.Slab.Next), and its group
// table, cleared. The table is a private index that no one outside the
// merger ever sees, and MaxGroups bounds it, so it stays instead of being
// rebuilt each interval. The drained merger keeps order, raws and drops —
// all that Groups, Raws, Drops, Len, Rows and Empty read — and is for
// reading only: it has no table, so it takes no more input, and Groups
// returns its order in place.
func (m *Merger) Handoff() Merger {
	d := *m
	*m = Merger{
		Op: d.Op, limits: d.limits, groups: d.groups, empty: d.empty,
		rawsDropped: d.rawsDropped, groupsOverflowed: d.groupsOverflowed,
		groupSlab: d.groupSlab.Next(), stateSlab: d.stateSlab.Next(), valueSlab: d.valueSlab.Next(),
		byteSlab: d.byteSlab.Next(),
	}
	clear(m.groups)
	m.order = make([]*Group, 0, m.groupSlab.Want())
	d.groups = nil
	return d
}

// CapCounts returns how many raw rows the raw cap has evicted and how many
// rows the group cap has folded into the overflow group, over the
// merger's lifetime.
func (m *Merger) CapCounts() (rawsDropped, groupsOverflowed int64) {
	return m.rawsDropped, m.groupsOverflowed
}

// SetLimits replaces the merger's limits (zero value = defaults).
func (m *Merger) SetLimits(l Limits) { m.limits = l }

// capRaws FIFO-evicts the oldest raw rows beyond the cap, counting each.
// Eviction moves the front of the slice and writes nothing — Raws hands
// the slice out — and the append that follows copies the kept rows to a
// larger array only when the current one is full, a quarter of the cap
// apart.
func (m *Merger) capRaws() {
	max := m.limits.maxRaws()
	if max < 0 {
		return
	}
	if excess := len(m.raws) - max; excess > 0 {
		m.raws = m.raws[excess:]
		m.rawsDropped += int64(excess)
	}
}

// atGroupCap reports whether creating another real group would exceed the
// cap (the overflow group itself rides above the cap).
func (m *Merger) atGroupCap() bool {
	max := m.limits.maxGroups()
	if max < 0 {
		return false
	}
	n := len(m.groups)
	if _, ok := m.groups[OverflowKey]; ok {
		n--
	}
	return n >= max
}

// newGroup registers a group the merger creates, in first-seen order. The
// group, its copy of rep and its copy of states are cut out of the slabs,
// and so, with one Take, are its key and its Rep's strings: a merger keeps
// no string it was handed, which may alias a decoded frame or a caller's
// scratch buffer.
func (m *Merger) newGroup(key string, rep tuple.Tuple, states []agg.State) *Group {
	g := &m.groupSlab.Take(1)[0]
	b := m.byteSlab.Take(stringBytes(key, rep))
	g.Key, b = keep(b, key)
	g.Rep, g.States = m.valueSlab.Take(len(rep)), m.stateSlab.Take(len(states))
	for i, v := range rep {
		if v.Kind() == tuple.KindString {
			var s string
			s, b = keep(b, v.Str())
			v = tuple.String(s)
		}
		g.Rep[i] = v
	}
	copy(g.States, states)
	m.groups[g.Key] = g
	m.order = append(m.order, g)
	return g
}

// stringBytes returns how many bytes a group's key and Rep strings take.
func stringBytes(key string, rep tuple.Tuple) int {
	n := len(key)
	for _, v := range rep {
		n += len(v.Str())
	}
	return n
}

// keep copies s to the front of b, returning the copy, a string over b's
// memory, and the rest of b.
func keep(b []byte, s string) (string, []byte) {
	n := copy(b, s)
	return unsafe.String(unsafe.SliceData(b), n), b[n:]
}

// overflowGroup returns the overflow group, creating it from a template
// tuple on first use: aggregate states start empty, and non-aggregate
// columns read "(overflow)" so the catch-all row is self-describing.
func (m *Merger) overflowGroup(rep tuple.Tuple) *Group {
	if g, ok := m.groups[OverflowKey]; ok {
		return g
	}
	g := m.newGroup(OverflowKey, rep, m.empty)
	for _, col := range m.Op.Cols {
		if !col.IsAgg && col.Pos >= 0 && col.Pos < len(g.Rep) {
			g.Rep[col.Pos] = tuple.String("(overflow)")
		}
	}
	return g
}

// checkShape validates a report's groups before any of them is merged, so
// a malformed report is rejected whole. Every group must carry exactly the
// states every other group of the query carries — the count and aggregate
// function of Op's aggregate columns where the merger has an Op, of the
// first group it ever saw otherwise — and, with an Op, a representative
// tuple wide enough for Rows to project. Reports decode from untrusted
// frames; this is the one place their shape is checked.
func (m *Merger) checkShape(groups []*Group) error {
	if len(groups) == 0 {
		return nil
	}
	want, minRep := m.empty, 0 // every group the merger holds has one shape
	switch {
	case m.Op != nil:
		for _, col := range m.Op.Cols {
			if !col.IsAgg && col.Pos >= minRep {
				minRep = col.Pos + 1
			}
		}
	case len(m.order) > 0:
		want = m.order[0].States
	case groups[0] != nil:
		want = groups[0].States
	}
	for _, g := range groups {
		if g == nil {
			return fmt.Errorf("advice: nil group in report")
		}
		if len(g.States) != len(want) {
			return fmt.Errorf("advice: group %q has %d aggregate states, want %d", g.Key, len(g.States), len(want))
		}
		if len(g.Rep) < minRep {
			return fmt.Errorf("advice: group %q has a %d-column representative, want at least %d", g.Key, len(g.Rep), minRep)
		}
		for i := range g.States {
			if g.States[i].Fn() != want[i].Fn() {
				return fmt.Errorf("advice: group %q state %d does not match the query's aggregate", g.Key, i)
			}
		}
	}
	return nil
}

// Merge folds one report's contents: partial groups, raw rows and eviction
// tombstones. The report may be shared with other bus subscribers, so the
// source is never mutated: a group is cloned, strings and all, the first
// time its key is seen — into slabs sized, at the report's first new key,
// for all of its new keys — and only the merger's own clone is ever merged
// into; raw rows are immutable once published and are appended by
// reference. Groups beyond
// the cap merge into the overflow group (an overflow group arriving from
// downstream is an ordinary first sight of OverflowKey), so "overflowed"
// stays exact end-to-end. A report with a malformed group is rejected
// whole with an error and leaves the merger untouched. Merge returns how
// many of the tombstones were new.
func (m *Merger) Merge(groups []*Group, raws []tuple.Tuple, drops []baggage.DropRecord) (newDrops int, err error) {
	if err := m.checkShape(groups); err != nil {
		return 0, err
	}
	sized := false
	for i, g := range groups {
		mine, ok := m.groups[g.Key]
		switch {
		case ok:
		case g.Key != OverflowKey && m.atGroupCap():
			m.groupsOverflowed++
			mine = m.overflowGroup(g.Rep)
		default:
			if !sized {
				m.expect(groups[i:])
				sized = true
			}
			m.newGroup(g.Key, g.Rep, g.States)
			continue
		}
		for k := range g.States { // checkShape made the two shapes equal
			mine.States[k].Merge(&g.States[k])
		}
	}
	if len(raws) > 0 {
		m.raws = append(m.raws, raws...)
		m.capRaws()
	}
	return m.drops.Add(drops...), nil
}

// expect sizes the slabs for the groups among rest whose key the merger
// does not hold yet, so cloning them costs one allocation per slab.
func (m *Merger) expect(rest []*Group) {
	groups, values, bytes := 0, 0, 0
	for _, g := range rest {
		if _, ok := m.groups[g.Key]; !ok {
			groups++
			values += len(g.Rep)
			bytes += stringBytes(g.Key, g.Rep)
		}
	}
	m.groupSlab.Expect(groups)
	m.stateSlab.Expect(groups * len(rest[0].States))
	m.valueSlab.Expect(values)
	m.byteSlab.Expect(bytes)
}

// Groups returns the partial groups in first-seen order: a snapshot, or
// a drained merger's own order, which nothing appends to any more.
func (m *Merger) Groups() []*Group {
	if m.groups == nil {
		return m.order[:len(m.order):len(m.order)]
	}
	return append(make([]*Group, 0, len(m.order)), m.order...)
}

// GroupsSince returns, uncopied and for reading only, the groups first
// seen after the first n. Merge only appends to the order, so until a
// Handoff a caller that has read n groups reads just the new ones here.
func (m *Merger) GroupsSince(n int) []*Group { return m.order[n:len(m.order):len(m.order)] }

// Raws returns the accumulated raw rows.
func (m *Merger) Raws() []tuple.Tuple { return m.raws }

// Drops returns the eviction tombstones, sorted by (slot, key).
func (m *Merger) Drops() []baggage.DropRecord { return m.drops.Sorted() }

// DroppedGroups returns how many distinct baggage groups the tombstones
// account for (see baggage.DropSet.Groups).
func (m *Merger) DroppedGroups() int { return m.drops.Groups() }

// Len returns how many result rows the merger holds: groups, or raw rows
// for a raw query.
func (m *Merger) Len() int { return len(m.order) + len(m.raws) }

// Rows materializes the final result rows in Select-column order.
func (m *Merger) Rows() []tuple.Tuple {
	if m.Op.Raw {
		return slices.Clone(m.raws)
	}
	return m.Op.Rows(m.order)
}

// Rows materializes one result row per group, in the groups' order and
// Select-column order, into two new slices the caller owns.
func (op *EmitOp) Rows(groups []*Group) []tuple.Tuple {
	n := len(op.Cols)
	out := make([]tuple.Tuple, len(groups))
	values := make([]tuple.Value, len(groups)*n)
	for r, g := range groups {
		row := values[r*n : (r+1)*n : (r+1)*n]
		k := 0
		for i, col := range op.Cols {
			if col.IsAgg {
				row[i] = g.States[k].Result()
				k++
			} else {
				row[i] = g.Rep[col.Pos]
			}
		}
		out[r] = row
	}
	return out
}

// Empty reports whether the merger holds no data.
func (m *Merger) Empty() bool {
	return len(m.order) == 0 && len(m.raws) == 0 && len(m.drops) == 0
}

// Reset lets go of the merger's contents — whoever took them with Groups
// and Raws keeps them — and starts the next reporting interval empty, on
// the same group table (see Handoff).
func (m *Merger) Reset() { m.Handoff() }
