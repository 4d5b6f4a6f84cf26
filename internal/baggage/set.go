// Package baggage implements Pivot Tracing's baggage abstraction (§5 of the
// paper): a per-request container for tuples that is propagated alongside a
// request as it traverses thread, application, and machine boundaries.
// Pack and Unpack store and retrieve tuples; because tuples follow the
// request's execution path they explicitly capture the happened-before
// relation, enabling inline evaluation of the happened-before join.
//
// Baggage handles branching executions with a versioning scheme based on
// interval tree clocks: each branch packs into its own uniquely-identified
// active instance, frozen pre-branch instances are read-only, and rejoining
// merges actives and deduplicates the frozen copies.
package baggage

import (
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/tuple"
)

// SetKind selects the retention semantics of a packed tuple set, matching
// the paper's Pack special cases (§3): ALL, FIRST, RECENT, FIRSTN, RECENTN,
// plus AGG for pack-time aggregation (the Table 3 rewrites).
type SetKind uint8

// Set kinds.
const (
	All SetKind = iota
	First
	FirstN
	Recent
	RecentN
	Agg
	// Frontier tracks the causal frontier of an execution: Pack replaces
	// the branch's tuple (like Recent), but merging at a branch join keeps
	// the tuples of both branches (deduplicated). Used by the baseline
	// global-evaluation strategy to carry X-Trace-style event identifiers.
	Frontier
	// Union accumulates distinct tuples: Pack appends unless an equal
	// tuple is already present, and merging at a branch join unions the
	// two sides (deduplicated). Unlike Frontier, a later Pack never
	// replaces earlier tuples, so facts recorded on any branch survive
	// every join. The budget layer stores eviction tombstones in a Union
	// set (see DropSlot) precisely because of this monotonicity.
	Union
)

func (k SetKind) String() string {
	switch k {
	case All:
		return "ALL"
	case First:
		return "FIRST"
	case FirstN:
		return "FIRSTN"
	case Recent:
		return "RECENT"
	case RecentN:
		return "RECENTN"
	case Agg:
		return "AGG"
	case Frontier:
		return "FRONTIER"
	case Union:
		return "UNION"
	default:
		return fmt.Sprintf("setkind(%d)", uint8(k))
	}
}

// AggField names one aggregated position of a packed tuple.
type AggField struct {
	Pos int      // position in the packed tuple
	Fn  agg.Func // aggregation function
}

// SetSpec configures a packed tuple set: its retention kind, capacity (for
// FIRSTN/RECENTN), field names, and — for AGG sets — which positions are
// group-by keys and which are aggregated.
type SetSpec struct {
	Kind    SetKind
	N       int
	Fields  tuple.Schema
	GroupBy []int
	Aggs    []AggField
}

// Equal reports whether two specs are identical.
func (s SetSpec) Equal(o SetSpec) bool {
	if s.Kind != o.Kind || s.N != o.N || !s.Fields.Equal(o.Fields) {
		return false
	}
	if len(s.GroupBy) != len(o.GroupBy) || len(s.Aggs) != len(o.Aggs) {
		return false
	}
	for i := range s.GroupBy {
		if s.GroupBy[i] != o.GroupBy[i] {
			return false
		}
	}
	for i := range s.Aggs {
		if s.Aggs[i] != o.Aggs[i] {
			return false
		}
	}
	return true
}

// group is one group-by bucket of an AGG set.
type group struct {
	keyVals tuple.Tuple // values at GroupBy positions, in GroupBy order
	states  []*agg.State
	cost    int // cached encoded size (see Set.CostBytes)
}

// clone copies the group's mutable part, its aggregation states.
func (g *group) clone() *group {
	c := &group{keyVals: g.keyVals, states: make([]*agg.State, len(g.states)), cost: g.cost}
	for i, st := range g.states {
		c.states[i] = st.Clone()
	}
	return c
}

// recomputeCost refreshes the group's cached encoded size. The sizes are
// computed arithmetically (no scratch encoding), so cost maintenance on
// the pack hot path never allocates.
func (g *group) recomputeCost() {
	c := tuple.SizeTuple(g.keyVals)
	for _, st := range g.states {
		c += st.EncodedSize()
	}
	g.cost = c
}

// encSize is the budget cost model for one stored tuple: its encoded wire
// size. It upper-bounds the tuple's contribution to the serialized baggage
// (slot names, specs, and stamps are bounded per-slot overhead on top).
func encSize(t tuple.Tuple) int { return tuple.SizeTuple(t) }

// Set is a tuple set stored in a baggage instance under one slot. Stored
// tuples and group keys are never written after they are stored, so copies
// of a set (Clone, Merge, Unpack) share them.
type Set struct {
	Spec   SetSpec
	tuples []tuple.Tuple     // non-AGG kinds; starts out backed by one
	one    [1]tuple.Tuple    // so that a set of one tuple (FIRST, RECENT) needs no list
	groups map[string]*group // AGG kind
	order  []string          // deterministic group iteration order
	bytes  int               // cached content cost, maintained by Pack/Merge
}

// CostBytes returns the set's content cost in encoded bytes — the budget
// layer's O(1) usage model. It is maintained incrementally by Pack and
// Merge and recomputed after decode, so budget decisions are identical
// whether or not the baggage crossed a process boundary.
func (s *Set) CostBytes() int { return s.bytes }

// recomputeBytes rebuilds the cached cost from scratch (used after decode
// and after internal evictions in bounded kinds).
func (s *Set) recomputeBytes() {
	total := 0
	if s.Spec.Kind == Agg {
		for _, key := range s.order {
			g := s.groups[key]
			g.recomputeCost()
			total += g.cost
		}
	} else {
		for _, t := range s.tuples {
			total += encSize(t)
		}
	}
	s.bytes = total
}

// removeGroup evicts one AGG group (a no-op for other kinds or unknown
// keys) and returns its cached cost.
func (s *Set) removeGroup(key string) int {
	g, ok := s.groups[key]
	if !ok {
		return 0
	}
	delete(s.groups, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.bytes -= g.cost
	return g.cost
}

// clear empties the set, returning the evicted content cost and tuple
// count.
func (s *Set) clear() (bytes, tuples int) {
	bytes, tuples = s.bytes, s.Len()
	s.tuples = nil
	if s.Spec.Kind == Agg {
		s.groups = make(map[string]*group)
		s.order = nil
	}
	s.bytes = 0
	return bytes, tuples
}

// NewSet returns an empty set with the given spec.
func NewSet(spec SetSpec) *Set {
	s := &Set{Spec: spec}
	s.tuples = s.one[:0]
	if spec.Kind == Agg {
		s.groups = make(map[string]*group)
	}
	return s
}

// Pack folds one tuple into the set according to its retention semantics.
func (s *Set) Pack(t tuple.Tuple) {
	switch s.Spec.Kind {
	case RecentN:
		s.tuples = append(s.tuples, t)
		if excess := len(s.tuples) - s.Spec.N; excess > 0 {
			s.tuples = append(s.tuples[:0:0], s.tuples[excess:]...)
			s.recomputeBytes()
		} else {
			s.bytes += encSize(t)
		}
		return
	case Agg:
		// Build the group key in a pooled scratch buffer; the map lookup
		// via string(ks.buf) does not allocate, so folding into an
		// existing group — the steady state of the paper's fixed-size AGG
		// rewrites — is allocation-free.
		ks := getScratch()
		ks.buf = t.AppendKey(ks.buf[:0], s.Spec.GroupBy)
		g, ok := s.groups[string(ks.buf)]
		if !ok {
			key := string(ks.buf)
			g = &group{keyVals: t.Project(s.Spec.GroupBy)}
			for _, af := range s.Spec.Aggs {
				g.states = append(g.states, agg.New(af.Fn))
			}
			s.groups[key] = g
			s.order = append(s.order, key)
		}
		putScratch(ks)
		for i, af := range s.Spec.Aggs {
			g.states[i].Add(t[af.Pos])
		}
		old := g.cost
		g.recomputeCost()
		s.bytes += g.cost - old
		return
	}
	store, replace := admits(s.Spec, len(s.tuples), func() bool { return slices.ContainsFunc(s.tuples, t.Equal) })
	if replace {
		s.tuples, s.bytes = s.tuples[:0], 0
	}
	if store {
		s.tuples = append(s.tuples, t)
		s.bytes += encSize(t)
	}
}

// admits decides a pack into a non-AGG set of n tuples, of a kind that
// keeps the tuples it stores as they are (see encodes): whether it stores
// the tuple, given whether an equal one is held, and whether the tuple
// replaces the n first. Every other kind stores nothing here.
func admits(spec SetSpec, n int, held func() bool) (store, replace bool) {
	switch spec.Kind {
	case All:
		return true, false
	case First:
		return n == 0, false
	case FirstN:
		return n < spec.N, false
	case Recent, Frontier:
		return true, true
	case Union:
		return !held(), false
	}
	return false, false
}

// Merge folds another set with the same spec into s. Used when rejoining
// branched baggage and when combining instances at unpack. A spec
// mismatch drops o rather than panicking, and Merge returns the one
// conflict (see PackStats.Conflicts); otherwise it returns 0.
func (s *Set) Merge(o *Set) (conflicts int64) {
	if !s.Spec.Equal(o.Spec) {
		return 1
	}
	switch s.Spec.Kind {
	case First, Recent:
		// The receiver wins if it has a tuple: for FIRST it is the older
		// side, for RECENT the left branch — a deterministic tie-break.
		if len(s.tuples) == 0 && len(o.tuples) > 0 {
			s.Pack(o.tuples[0])
		}
	case Frontier:
		// Union the branch contributions, dropping exact duplicates.
		for _, t := range o.tuples {
			if !slices.ContainsFunc(s.tuples, t.Equal) {
				s.tuples = append(s.tuples, t)
				s.bytes += encSize(t)
			}
		}
	case Agg:
		for _, key := range o.order {
			og := o.groups[key]
			g, ok := s.groups[key]
			if !ok {
				g = og.clone()
				if g.cost == 0 {
					g.recomputeCost()
				}
				s.groups[key] = g
				s.order = append(s.order, key)
				s.bytes += g.cost
				continue
			}
			for i, st := range og.states {
				g.states[i].Merge(st)
			}
			old := g.cost
			g.recomputeCost()
			s.bytes += g.cost - old
		}
	default:
		for _, t := range o.tuples {
			s.Pack(t)
		}
	}
	return 0
}

// appendUnpack appends the set's contents to dst as tuples in the packed
// field layout. AGG sets yield one tuple per group, with group-by positions
// holding the key values and aggregated positions holding partial results;
// positions covered by neither hold null. The tuples of a non-AGG set are
// the stored ones and must not be written; an AGG set's are new, their
// values appended to vals, which is returned extended.
func (s *Set) appendUnpack(dst []tuple.Tuple, vals tuple.Tuple) ([]tuple.Tuple, tuple.Tuple) {
	if s.Spec.Kind != Agg {
		return append(dst, s.tuples...), vals
	}
	w := len(s.Spec.Fields)
	vals = slices.Grow(vals, len(s.order)*w)
	for _, key := range s.order {
		g := s.groups[key]
		at := len(vals)
		vals = append(vals, make(tuple.Tuple, w)...)
		t := vals[at : at+w : at+w]
		for i, pos := range s.Spec.GroupBy {
			t[pos] = g.keyVals[i]
		}
		for i, af := range s.Spec.Aggs {
			t[af.Pos] = g.states[i].Result()
		}
		dst = append(dst, t)
	}
	return dst, vals
}

// Len returns the number of stored tuples (groups for AGG sets).
func (s *Set) Len() int {
	if s.Spec.Kind == Agg {
		return len(s.groups)
	}
	return len(s.tuples)
}

// Clone returns a set with the same contents that can be packed and merged
// into without s seeing it — for the copy of an active instance and for a
// merge accumulator. Only what those writes touch is copied: the tuple
// list and the groups' aggregation states.
func (s *Set) Clone() *Set {
	c := &Set{Spec: s.Spec, bytes: s.bytes}
	if s.Spec.Kind != Agg {
		c.tuples = append(c.one[:0], s.tuples...)
		return c
	}
	c.groups = make(map[string]*group, len(s.groups))
	c.order = append([]string(nil), s.order...)
	for key, g := range s.groups {
		c.groups[key] = g.clone()
	}
	return c
}
