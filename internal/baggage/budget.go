package baggage

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/tuple"
)

// This file implements per-request baggage budgets: a byte/tuple cap
// enforced at pack time with merge-safe, accounted truncation.
//
// Eviction must commute with Split/Join to keep accounting exact: a group
// evicted on one branch could otherwise re-enter the merged result from a
// pre-split frozen instance, or be re-packed after the eviction, silently
// undoing the drop (or worse, double-counting it). Both holes are closed
// with tombstones: every eviction records a (slot, groupKey) tuple — or
// (slot, "") for a whole-slot eviction — in a reserved UNION slot. Union
// sets are monotonic (a tombstone survives every join), tombstoned keys
// refuse re-packs, and Unpack suppresses tombstoned groups from the merged
// view. The result is that each group key is exclusively either fully
// reported (byte-exact) or tombstoned, so reported + dropped reconciles
// exactly against an unbudgeted oracle.
//
// Evictions take whole groups, never partial state, and only from the
// active (branch-private) instance; frozen instances are read-only by
// construction. Budgets are scoped per query (slot-name prefix up to the
// first '.'), so one query exhausting its budget cannot evict another
// query's tuples.

// DropSlot is the reserved slot carrying eviction tombstones. The leading
// '!' keeps it outside every query's slot namespace (query slots are
// "<queryID>.<alias>"), and it is excluded from budget accounting and
// eviction so recording drops can never cascade into more drops.
const DropSlot = "!pt.drops"

// dropSpec stores tombstones as (slot, groupKey) string pairs in a UNION
// set: Pack dedups, Join unions, and nothing ever evicts or replaces them.
var dropSpec = SetSpec{Kind: Union, Fields: tuple.Schema{"slot", "key"}}

// TraceSlot is the reserved slot carrying the causal span frontier (a
// trace id plus the ids of the execution's current frontier spans, see
// internal/spans). Like DropSlot it lives outside the query namespace via
// the leading '!', and it is explicitly excluded from budget accounting
// and victim selection: a query exhausting its budget must evict its own
// data, never the request's causal identity, and an evicted trace slot
// must never surface in a query's drop accounting. The slot is intrinsically
// tiny — FRONTIER retention keeps one (trace, span) pair per live branch.
const TraceSlot = "!pt.trace"

// TraceSpec stores the span frontier: FRONTIER retention replaces the
// branch's tuple on every pack and unions distinct tuples at joins —
// X-Trace-style event identifiers. Each tuple is (trace id, span id,
// virtual-time start of that span's crossing); carrying the start lets the
// next crossing compute its segment duration locally, keeping span records
// fixed-size with no cross-process clock exchange.
var TraceSpec = SetSpec{Kind: Frontier, Fields: tuple.Schema{"trace", "span", "start"}}

// Default budget: generous enough that well-behaved queries (the paper's
// fixed-size AGG rewrites) never hit it, small enough to bound the in-band
// metadata overhead of a pathological one.
const (
	DefaultMaxBytes  = 64 << 10 // 64 KiB of encoded tuple content per query
	DefaultMaxTuples = 1024     // stored tuples (groups for AGG) per query
)

// Budget caps one query's baggage footprint. Zero fields select the
// defaults above; negative fields disable that cap.
type Budget struct {
	MaxBytes  int
	MaxTuples int
}

// maxBytes resolves the byte cap: negative means unlimited.
func (b Budget) maxBytes() int { return cmp.Or(b.MaxBytes, DefaultMaxBytes) }

// maxTuples resolves the tuple cap: negative means unlimited.
func (b Budget) maxTuples() int { return cmp.Or(b.MaxTuples, DefaultMaxTuples) }

// DropRecord is one eviction tombstone: the slot it applies to and the
// evicted group key ("" for a whole-slot eviction of a non-AGG set). Keys
// are the set's internal encoded group identity — opaque, but stable
// across processes, which is all exact accounting needs.
type DropRecord struct {
	Slot string
	Key  string
}

// DropSet is a set of eviction tombstones. Tombstones are globally unique
// per evicted group, so set union keeps drop accounting exact however many
// fires, reports or merge tiers carry the same record. The zero value is
// an empty set ready for Add.
type DropSet map[DropRecord]struct{}

// Add inserts recs and returns how many were not already present.
func (s *DropSet) Add(recs ...DropRecord) int {
	if len(recs) == 0 {
		return 0
	}
	if *s == nil {
		*s = make(DropSet, len(recs))
	}
	before := len(*s)
	for _, r := range recs {
		(*s)[r] = struct{}{}
	}
	return len(*s) - before
}

// Sorted returns the tombstones ordered by (slot, key); nil when empty.
func (s DropSet) Sorted() []DropRecord {
	if len(s) == 0 {
		return nil
	}
	out := make([]DropRecord, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Groups counts the distinct evicted groups. A whole-slot tombstone that
// coexists with per-group tombstones for the same slot is not counted
// again: the per-group records are then the precise count. (Whole-slot
// evictions only happen for non-aggregated slots, where group records
// never appear, so this only suppresses genuine double counting.)
func (s DropSet) Groups() int {
	if len(s) == 0 {
		return 0
	}
	keyed := make(map[string]bool) // slots holding per-group tombstones
	for r := range s {
		if r.Key != "" {
			keyed[r.Slot] = true
		}
	}
	n := 0
	for r := range s {
		if r.Key != "" || !keyed[r.Slot] {
			n++
		}
	}
	return n
}

// PackStats accounts one pack. Every tuple offered is either packed or
// refused; every eviction is counted in groups, tuples, and bytes. Nothing
// is dropped silently.
type PackStats struct {
	Packed        int64 // tuples stored
	RefusedTuples int64 // tuples refused because their slot/group is tombstoned
	EvictedGroups int64 // tombstones written (whole slots count as one)
	EvictedTuples int64 // stored tuples removed by eviction
	EvictedBytes  int64 // content bytes removed by eviction
	// Conflicts counts slot contents dropped because their spec disagreed
	// with the side they met: a pack replaces what a peer stored under its
	// own name, and a merge — at a join or an unpack — drops the other
	// side. Baggage arrives from peer processes, and bytes from a corrupt
	// or hostile one must never panic the traced application; the
	// packer's spec is the one its query reads the slot with.
	Conflicts int64
}

// Add accumulates o into s.
func (s *PackStats) Add(o PackStats) {
	s.Packed += o.Packed
	s.RefusedTuples += o.RefusedTuples
	s.EvictedGroups += o.EvictedGroups
	s.EvictedTuples += o.EvictedTuples
	s.EvictedBytes += o.EvictedBytes
	s.Conflicts += o.Conflicts
}

// PackBudgeted packs tuples into slot like Pack but enforces the budget
// over the slots of query, the slot's owner (see owns): tombstoned
// slots/groups refuse the pack, and after packing, whole lowest-priority
// groups of that query are evicted — largest slot first, oldest group
// first — until the query is back under budget. All outcomes are counted
// in the returned PackStats.
func (b *Baggage) PackBudgeted(query, slot string, spec SetSpec, budget Budget, tuples ...tuple.Tuple) PackStats {
	set, conflicts := b.active().set(slot, spec)
	st := PackStats{Conflicts: conflicts}
	whole, keys := b.evictions(slot)
	// Group keys are only needed to honor per-group tombstones; the common
	// case — no eviction has ever hit this slot — skips key construction
	// entirely, keeping the steady-state budgeted pack allocation-free.
	var ks *scratch
	if len(keys) > 0 && spec.Kind == Agg {
		ks = getScratch()
	}
	for _, t := range tuples {
		if whole {
			st.RefusedTuples++
			continue
		}
		if ks != nil {
			ks.buf = t.AppendKey(ks.buf[:0], spec.GroupBy)
			if keys[string(ks.buf)] {
				st.RefusedTuples++
				continue
			}
		}
		set.Pack(t)
		st.Packed++
	}
	if ks != nil {
		putScratch(ks)
	}
	return b.enforce(budget, query, st)
}

// PackFrom packs the projection of w onto src into slot as PackBudgeted
// packs w.Project(src), without building that projection or keeping w:
// advice packs its pooled working tuples with it. A slot whose kind keeps
// what it is given as it is (see encodes) takes the projection's
// encoding; a materialized, tombstoned or aggregating slot takes a
// projected copy, through PackBudgeted.
func (b *Baggage) PackFrom(query, name string, spec SetSpec, budget Budget, w tuple.Tuple, src []int) PackStats {
	in := b.active()
	sl := in.lookup(name)
	if whole, _ := b.evictions(name); whole || !encodes(spec.Kind) || sl != nil && sl.set != nil {
		return b.PackBudgeted(query, name, spec, budget, w.Project(src))
	}
	st := PackStats{Packed: 1}
	switch {
	case sl == nil:
		in.slots = append(in.slots, newSlot(name, spec, tuple.SizeProjected(w, src)))
		sl = &in.slots[len(in.slots)-1]
	case !sl.specIs(spec): // stored by a peer under another spec
		*sl = newSlot(name, spec, tuple.SizeProjected(w, src))
		st.Conflicts++
	}
	sl.add(spec, w, src)
	return b.enforce(budget, query, st)
}

// enforce evicts whole groups from the active instance until the query's
// usage fits the budget or no evictable content remains (frozen instances
// are read-only; their contribution can only be suppressed by tombstones
// already written on this branch), and adds the evictions to a pack's st.
func (b *Baggage) enforce(budget Budget, query string, st PackStats) PackStats {
	maxB, maxT := budget.maxBytes(), budget.maxTuples()
	for maxB >= 0 || maxT >= 0 {
		ub, ut := b.usage(query)
		if (maxB < 0 || ub <= maxB) && (maxT < 0 || ut <= maxT) {
			break
		}
		victim := b.victim(query)
		if victim == nil {
			break
		}
		// Evict before recordDrop adds a slot, which may move victim.
		name, key, tuples, bytes := victim.name, "", 1, 0
		if victim.kind() == Agg {
			set := victim.materialize()
			key = set.order[0] // oldest group first
			bytes = set.removeGroup(key)
		} else {
			bytes, tuples = victim.clear()
		}
		st.Conflicts += b.recordDrop(name, key)
		st.EvictedGroups++
		st.EvictedTuples += int64(tuples)
		st.EvictedBytes += int64(bytes)
	}
	return st
}

// usage sums the query's content cost and stored-tuple count across every
// instance (active and frozen) — the same contents a serialize would ship.
func (b *Baggage) usage(query string) (bytes, tuples int) {
	b.ensureDecoded()
	for _, in := range b.insts {
		for i := range in.slots {
			if sl := &in.slots[i]; owns(query, sl.name) {
				bytes += sl.cost()
				tuples += sl.len()
			}
		}
	}
	return
}

// victim picks the next slot to evict from: an active-instance slot of the
// query with the largest content cost (ties go to the earliest-created
// slot). Only the active instance is eligible — frozen instances are
// shared with sibling branches and must stay immutable.
func (b *Baggage) victim(query string) *slot {
	var best *slot
	in := b.active()
	for i := range in.slots {
		sl := &in.slots[i]
		if !owns(query, sl.name) || sl.len() == 0 {
			continue
		}
		if best == nil || sl.cost() > best.cost() {
			best = sl
		}
	}
	return best
}

// recordDrop writes one tombstone into the active instance's drop slot
// and returns the conflicts it met.
func (b *Baggage) recordDrop(slot, key string) int64 {
	drops, conflicts := b.active().set(DropSlot, dropSpec)
	drops.Pack(tuple.Tuple{tuple.String(slot), tuple.String(key)})
	return conflicts
}

// findPair calls f with the values of every two-value tuple stored under
// name, instance by instance, newest first, until f returns true, and
// reports whether one did. It allocates nothing: the tracer's own slots
// are read on every fire.
func (b *Baggage) findPair(name string, f func(x, y tuple.Value) bool) bool {
	if b == nil {
		return false
	}
	b.ensureDecoded()
	for _, in := range b.insts {
		switch sl := in.lookup(name); {
		case sl == nil || sl.kind() == Agg:
		case sl.set != nil:
			for _, t := range sl.set.tuples {
				if len(t) == 2 && f(t[0], t[1]) {
					return true
				}
			}
		default:
			r := tuple.NewReader(sl.body)
			for i := 0; i < sl.n; i++ {
				k := r.Count()
				if k == 2 && f(r.BorrowValue(), r.BorrowValue()) {
					return true
				}
				for ; k > 0 && k != 2; k-- {
					r.BorrowValue()
				}
			}
		}
	}
	return false
}

// evictions collects the tombstones targeting slot across every instance:
// whether the whole slot is tombstoned, and the set of tombstoned group
// keys.
func (b *Baggage) evictions(slot string) (whole bool, keys map[string]bool) {
	whole = b.findPair(DropSlot, func(s, k tuple.Value) bool {
		if s.Str() != slot {
			return false
		}
		if k.Str() == "" {
			return true
		}
		if keys == nil {
			keys = make(map[string]bool)
		}
		keys[k.Str()] = true
		return false
	})
	if whole {
		return true, nil
	}
	return false, keys
}

// DropRecords returns the deduplicated eviction tombstones of the given
// query's slots ("" for all queries), in first-recorded order. Advice reads
// these at the final tracepoint of a request so agents and the frontend
// can reconcile reported groups + dropped groups against the true total.
func (b *Baggage) DropRecords(query string) []DropRecord {
	var out []DropRecord
	b.findPair(DropSlot, func(s, k tuple.Value) bool {
		rec := DropRecord{Slot: s.Str(), Key: k.Str()}
		if (query == "" || owns(query, rec.Slot)) && !slices.Contains(out, rec) {
			out = append(out, rec)
		}
		return false
	})
	return out
}

// isSystemSlot reports whether slot is one of the tracer's own reserved
// slots (DropSlot, TraceSlot, SampleSlot): the leading '!' keeps them
// outside every query's namespace. They are exempt from budget accounting
// and victim selection — recording a drop must never cascade into more
// drops, span capture must never charge a query's budget, and a request's
// sampling identity must never compete with query data for space.
func isSystemSlot(slot string) bool {
	return strings.HasPrefix(slot, "!")
}

// owns reports whether slot belongs to query. Compiled plans name every
// slot of a query "<queryID>.<…>" (a join source's slots nest further),
// and the owner's ID comes from the advice that packs or reads, never
// from the slot name: tenant queries are named "<tenant>.Q<n>", so the
// text before a slot's first '.' would lump all of a tenant's queries
// into one budget. System slots belong to no query.
func owns(query, slot string) bool {
	return !isSystemSlot(slot) && len(slot) > len(query) && slot[len(query)] == '.' && strings.HasPrefix(slot, query)
}
