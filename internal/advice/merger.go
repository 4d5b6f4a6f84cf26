package advice

import (
	"fmt"
	"sync/atomic"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/tuple"
)

// Group is one group-by bucket of partially aggregated results. Groups are
// the unit of transport between agents and the query frontend: partial
// aggregate states merge correctly across processes (unlike final values —
// an average of averages is not the average).
type Group struct {
	Key    string
	Rep    tuple.Tuple // representative working tuple for non-agg columns
	States []*agg.State

	// seq is the group's creation stamp from a shared sequence source (see
	// ShardedAccumulator): Drain uses it to restore global first-seen order
	// across shards. Zero when no sequence source is attached.
	seq int64
}

// Clone deep-copies the group.
func (g *Group) Clone() *Group {
	c := &Group{Key: g.Key, Rep: g.Rep.Clone(), seq: g.seq}
	if len(g.States) > 0 {
		c.States = make([]*agg.State, len(g.States))
		for i, s := range g.States {
			c.States[i] = s.Clone()
		}
	}
	return c
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
// capped where their tuples were folded (shard drains, combiner tiers).
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

func (l Limits) maxGroups() int {
	switch {
	case l.MaxGroups < 0:
		return -1
	case l.MaxGroups == 0:
		return DefaultMaxGroups
	default:
		return l.MaxGroups
	}
}

func (l Limits) maxRaws() int {
	switch {
	case l.MaxRaws < 0:
		return -1
	case l.MaxRaws == 0:
		return DefaultMaxRaws
	default:
		return l.MaxRaws
	}
}

// Merger is the report-merge algebra, written once: partial groups in
// first-seen order, raw rows, a set of baggage eviction tombstones, and
// the Limits/overflow accounting that bounds them. Partial aggregate
// states merge associatively and commutatively (inexact sampling weights
// ride inside agg.State), raw rows and tombstones union, so folding the
// same tuples in-process, at any number of intermediate tiers, and once
// more at the frontend yields identical results. Agents (through
// Accumulator and ShardedAccumulator), combiner tiers and the frontend all
// hold this one type.
//
// There are two ways in — Merge for reports other bus subscribers may
// share, Absorb for exclusively-owned drains — and one way out: Groups,
// Raws and Drops. A Merger is not safe for concurrent use.
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

	// seqSrc, when set, stamps each group this merger creates with a
	// sequence shared across sibling shards (see ShardedAccumulator).
	seqSrc *atomic.Int64

	// Cumulative eviction accounting; survives Reset so heartbeats can
	// report exact totals for the query's lifetime.
	rawsDropped      int64
	groupsOverflowed int64
}

// NewMerger returns an empty merger for op (nil at a combiner tier, which
// requires Unbounded limits) with the given limits (zero value = defaults).
func NewMerger(op *EmitOp, l Limits) *Merger {
	return &Merger{Op: op, limits: l, groups: make(map[string]*Group)}
}

// SetLimits replaces the merger's limits (zero value = defaults).
func (m *Merger) SetLimits(l Limits) { m.limits = l }

// RawsDropped returns how many raw rows FIFO eviction has discarded.
func (m *Merger) RawsDropped() int64 { return m.rawsDropped }

// GroupsOverflowed returns how many rows were folded into the overflow
// group instead of their own group.
func (m *Merger) GroupsOverflowed() int64 { return m.groupsOverflowed }

// capRaws FIFO-evicts the oldest raw rows beyond the cap, counting each.
func (m *Merger) capRaws() {
	max := m.limits.maxRaws()
	if max < 0 {
		return
	}
	if excess := len(m.raws) - max; excess > 0 {
		m.raws = append(m.raws[:0:0], m.raws[excess:]...)
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

// newStates returns one empty partial state per aggregate column of Op.
func (m *Merger) newStates() []*agg.State {
	var states []*agg.State
	for _, col := range m.Op.Cols {
		if col.IsAgg {
			states = append(states, agg.New(col.Fn))
		}
	}
	return states
}

// insert registers a group the merger owns, stamping its creation order.
func (m *Merger) insert(g *Group) {
	if m.seqSrc != nil {
		g.seq = m.seqSrc.Add(1)
	}
	m.groups[g.Key] = g
	m.order = append(m.order, g)
}

// overflowGroup returns the overflow group, creating it from a template
// tuple on first use: aggregate states start empty, and non-aggregate
// columns read "(overflow)" so the catch-all row is self-describing.
func (m *Merger) overflowGroup(rep tuple.Tuple) *Group {
	if g, ok := m.groups[OverflowKey]; ok {
		return g
	}
	g := &Group{Key: OverflowKey, Rep: rep.Clone(), States: m.newStates()}
	for _, col := range m.Op.Cols {
		if !col.IsAgg && col.Pos >= 0 && col.Pos < len(g.Rep) {
			g.Rep[col.Pos] = tuple.String("(overflow)")
		}
	}
	m.insert(g)
	return g
}

// mergeStates folds src's partial states into dst's, pairwise. The two
// groups have the same shape: Merge checked it, Absorb's contract implies
// it.
func mergeStates(dst, src *Group) {
	for i, st := range src.States {
		dst.States[i].Merge(st)
	}
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
	var want []*agg.State // every group the merger holds has one shape
	switch {
	case len(m.order) > 0:
		want = m.order[0].States
	case m.Op != nil:
		want = m.newStates()
	case groups[0] != nil:
		want = groups[0].States
	}
	minRep := 0
	if m.Op != nil {
		for _, col := range m.Op.Cols {
			if !col.IsAgg && col.Pos >= minRep {
				minRep = col.Pos + 1
			}
		}
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
		for i, st := range g.States {
			if st == nil || st.Fn() != want[i].Fn() {
				return fmt.Errorf("advice: group %q state %d does not match the query's aggregate", g.Key, i)
			}
		}
	}
	return nil
}

// Merge folds one report's contents: partial groups, raw rows and eviction
// tombstones. The report may be shared with other bus subscribers, so the
// source is never mutated: a group is cloned the first time its key is
// seen and only the merger's own clone is ever merged into; raw rows are
// immutable once published and are appended by reference. Groups beyond
// the cap merge into the overflow group (an overflow group arriving from
// downstream is an ordinary first sight of OverflowKey), so "overflowed"
// stays exact end-to-end. A report with a malformed group is rejected
// whole with an error and leaves the merger untouched. Merge returns how
// many of the tombstones were new.
func (m *Merger) Merge(groups []*Group, raws []tuple.Tuple, drops []baggage.DropRecord) (newDrops int, err error) {
	if err := m.checkShape(groups); err != nil {
		return 0, err
	}
	for _, g := range groups {
		mine, ok := m.groups[g.Key]
		switch {
		case ok:
		case g.Key != OverflowKey && m.atGroupCap():
			m.groupsOverflowed++
			mine = m.overflowGroup(g.Rep)
		default:
			m.insert(g.Clone())
			continue
		}
		mergeStates(mine, g)
	}
	if len(raws) > 0 {
		m.raws = append(m.raws, raws...)
		m.capRaws()
	}
	return m.drops.Add(drops...), nil
}

// Absorb moves src's contents into m without cloning: groups and raw rows
// are stolen wholesale, same-key groups merge their partial states
// (keeping the earliest creation stamp), tombstones union, and eviction
// counters transfer. src must be exclusively owned by the caller, built
// for the same query, and not used afterwards. Absorbed contents were
// capped where they were folded; m's limits are not applied again.
func (m *Merger) Absorb(src *Merger) {
	for _, g := range src.order {
		mine, ok := m.groups[g.Key]
		if !ok {
			m.groups[g.Key] = g
			m.order = append(m.order, g)
			continue
		}
		if g.seq < mine.seq {
			mine.seq = g.seq
		}
		mergeStates(mine, g)
	}
	m.raws = append(m.raws, src.raws...)
	for d := range src.drops {
		m.drops.Add(d)
	}
	m.rawsDropped += src.rawsDropped
	m.groupsOverflowed += src.groupsOverflowed
}

// Groups snapshots the current partial groups, in first-seen order.
func (m *Merger) Groups() []*Group {
	return append(make([]*Group, 0, len(m.order)), m.order...)
}

// Raws returns the accumulated raw rows.
func (m *Merger) Raws() []tuple.Tuple { return m.raws }

// Drops returns the eviction tombstones, sorted by (slot, key).
func (m *Merger) Drops() []baggage.DropRecord { return m.drops.Sorted() }

// DroppedGroups returns how many distinct baggage groups the tombstones
// account for (see baggage.DropSet.Groups).
func (m *Merger) DroppedGroups() int { return m.drops.Groups() }

// Rows materializes the final result rows in Select-column order.
func (m *Merger) Rows() []tuple.Tuple {
	if m.Op.Raw {
		out := make([]tuple.Tuple, len(m.raws))
		copy(out, m.raws)
		return out
	}
	out := make([]tuple.Tuple, 0, len(m.order))
	for _, g := range m.order {
		row := make(tuple.Tuple, len(m.Op.Cols))
		k := 0
		for i, col := range m.Op.Cols {
			if col.IsAgg {
				row[i] = g.States[k].Result()
				k++
			} else {
				row[i] = g.Rep[col.Pos]
			}
		}
		out = append(out, row)
	}
	return out
}

// Empty reports whether the merger holds no data.
func (m *Merger) Empty() bool {
	return len(m.order) == 0 && len(m.raws) == 0 && len(m.drops) == 0
}

// Reset clears the merger for the next reporting interval.
func (m *Merger) Reset() {
	m.groups = make(map[string]*Group)
	m.order = nil
	m.raws = nil
	m.drops = nil
}
