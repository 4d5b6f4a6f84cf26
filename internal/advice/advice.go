// Package advice implements Pivot Tracing's advice: the intermediate
// representation queries compile to (§3, Table 2 of the paper), and the
// engine that evaluates it at tracepoints.
//
// An advice program is a fixed pipeline — Observe, then zero or more
// Unpacks, then Filters, then Pack and/or Emit. There are no jumps and no
// recursion, so advice is guaranteed to terminate (the paper's safety
// argument). Unpack joins tuples packed by advice at causally-preceding
// tracepoints, which is how the happened-before join is evaluated inline
// during request execution.
package advice

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/tuple"
)

// fireScratch recycles the per-fire working set. Safe because nothing
// downstream of Invoke retains the working tuples: the accumulator clones
// group representatives and raw rows, and baggage packs their encoding
// (or, into a materialized slot, a projection copy). The scratch is
// cleared before pooling so pooled slots don't pin observed values across
// fires.
type fireScratch struct {
	proj     tuple.Tuple
	working  []tuple.Tuple
	spare    []tuple.Tuple // the unpack join's other working set; the two swap per unpack
	arena    tuple.Tuple   // decoded unpacked values and the joined tuples' values, carved off back to back
	unpacked []tuple.Tuple // one Unpack's tuples: the baggage's own or decoded into arena, copied into arena, never written
}

// maxPooledArena bounds the values a pooled scratch retains: one wide
// cartesian join must not pin its arena for the process lifetime.
const maxPooledArena = 1 << 12

var firePool = sync.Pool{New: func() any { return new(fireScratch) }}

// Costs declares a program's operator counters, once — the paper's §4
// "explain"-style live cost analysis (count tuples rather than aggregate
// them). T is atomic.Int64 in Program.Cost, cheap atomics shared by every
// woven copy of the program, so installed queries can be profiled without
// a separate counting run; it is int64 in the snapshot an agent ships
// (agent.OpStats). Field order is the ExplainStats wire order, append
// only (see agent.Counters).
type Costs[T any] struct {
	// Invocations counts tracepoint crossings that reached this advice.
	Invocations T
	// Sampled counts crossings skipped because the request's sampling
	// decision suppressed it (SampleRate).
	Sampled T
	// DroppedByJoin counts crossings discarded because an Unpack found no
	// causally-preceding tuples (inner-join misses).
	DroppedByJoin T
	// TuplesFiltered counts working tuples discarded by FILTER predicates.
	TuplesFiltered T
	// TuplesPacked counts tuples stored into baggage.
	TuplesPacked T
	// PackedBytes counts the encoded content bytes of tuples offered to
	// PACK — the query's in-band baggage footprint before retention folding.
	PackedBytes T
	// PackRefused counts tuples refused by PACK because their slot or group
	// carried an eviction tombstone.
	PackRefused T
	// PackEvictedGroups, PackEvictedTuples and PackEvictedBytes count budget
	// evictions triggered by this program's packs (see baggage.PackStats).
	PackEvictedGroups T
	PackEvictedTuples T
	PackEvictedBytes  T
	// TuplesEmitted counts tuples sent to the process-local aggregator.
	TuplesEmitted T
	// Panics counts panics recovered from this advice at the tracepoint
	// boundary.
	Panics T
}

// NumCosts is the number of operator counters.
const NumCosts = int(unsafe.Sizeof(Costs[int64]{}) / unsafe.Sizeof(int64(0)))

// The live form must lay out exactly like the snapshot for Values to index
// both (a constant index out of range fails the build otherwise).
var _ = [1]struct{}{}[unsafe.Sizeof(Costs[atomic.Int64]{})-unsafe.Sizeof(Costs[int64]{})]

// Values views the counters as an array in declaration (= wire) order.
// Sound because every field has type T, so the struct is NumCosts Ts with
// no padding.
func (c *Costs[T]) Values() *[NumCosts]T {
	return (*[NumCosts]T)(unsafe.Pointer(c))
}

// UnpackOp retrieves tuples packed under Slot by advice earlier in the
// execution and joins them (cartesian) with the working tuples.
type UnpackOp struct {
	Slot   string
	Fields tuple.Schema // names of the unpacked fields, for explain output
}

// PackOp stores a projection of each working tuple into the baggage for
// advice at later tracepoints.
type PackOp struct {
	Slot   string
	Spec   baggage.SetSpec
	Source []int // positions of the working tuple to pack, in Spec.Fields order
}

// EmitCol is one output column of an Emit, in Select order.
type EmitCol struct {
	IsAgg bool
	// Pos is the working-tuple position the column reads; -1 for a bare
	// COUNT.
	Pos int
	Fn  agg.Func // aggregator, when IsAgg
}

// EmitOp outputs rows to the process-local aggregator: one aggregated row
// per group, or — for queries with no grouping or aggregation — one raw
// row per working tuple.
type EmitOp struct {
	Cols    []EmitCol
	GroupBy []int // group-key positions in the working tuple
	Raw     bool  // no aggregation: emit each computed row
	// Schema names the emitted columns.
	Schema tuple.Schema
}

// Program is compiled advice for one tracepoint of one query.
type Program struct {
	// QueryID identifies the owning query; advice for the same query
	// shares baggage slots namespaced by this ID.
	QueryID string
	// Tracepoint is the name of the tracepoint this advice weaves into.
	Tracepoint string
	// Observe projects the tracepoint's exported tuple into the working
	// tuple (the OBSERVE operation); Fields names the observed values.
	Observe       []int
	ObserveFields tuple.Schema
	Unpacks       []UnpackOp
	Filters       []Expr
	Computes      []Expr
	Pack          *PackOp
	Emit          *EmitOp

	// SampleRate, when in (0, 1], enables consistent request-level
	// sampling (the paper's §8): the advice honors the per-request
	// decision minted into the reserved baggage sample slot at request
	// creation. A suppressed request is skipped before any work; an
	// admitted one processes normally, with emitted aggregates weighted by
	// the inverse of the decision's effective rate. It never splits a
	// request: every program of the query sees the same decision at every
	// crossing on the request's causal path. Values outside (0, 1] must
	// be clamped to 0 (disabled) before reaching the advice path — see
	// ClampRate.
	SampleRate float64

	// Safety bounds the program's runtime behavior (see Safety). The
	// zero value enables every default limit.
	Safety Safety

	// Cost holds the program's live execution counters.
	Cost Costs[atomic.Int64]

	// Circuit-breaker state, shared by every woven copy of the program
	// (like Cost), so a fault seen at any tracepoint of a process
	// quarantines the program everywhere it is woven in that process.
	// Faults are counted once, in Cost.Panics.
	quarantined atomic.Bool
	notified    atomic.Bool
}

// ClampRate validates a sampling rate from an untrusted source (wire
// decode, user options, query text) — the only gate through which such a
// rate reaches SampleRate. A rate is usable iff it is a real number in
// (0, 1] whose inverse — the tuple weight — is still a finite float64;
// anything else — zero, negative, above one, NaN, ±Inf, or a subnormal so
// small that 1/r overflows to +Inf — returns 0, which means "sampling
// disabled" (the exact path). NaN fails the r > 0 comparison, so no
// special case is needed.
func ClampRate(r float64) float64 {
	if r > 0 && r <= 1 && !math.IsInf(1/r, 1) {
		return r
	}
	return 0
}

// String renders the program in the paper's advice notation, e.g.
//
//	A2: OBSERVE delta
//	    UNPACK procName
//	    EMIT procName, SUM(delta)
func (p *Program) String() string { return p.render(nil) }

// AnnotatedString renders the program like String but with live execution
// counters attached to each operator line — the EXPLAIN ANALYZE view of the
// plan. Counters are per-stage: a program with several FILTERs shows the
// summed filter drops on the first FILTER line, and join-miss drops are
// summed across UNPACKs. Reading the atomics is racy-but-monotonic; callers
// typically render after a flush quiesces the workload.
func (p *Program) AnnotatedString() string {
	c := p.CostSnapshot()
	return p.render(&c)
}

// CostSnapshot loads the program's live counters.
func (p *Program) CostSnapshot() Costs[int64] {
	var c Costs[int64]
	live, vals := p.Cost.Values(), c.Values()
	for i := range live {
		vals[i] = live[i].Load()
	}
	return c
}

// render writes the program one operator per line, each line followed by
// its counters from c unless c is nil.
func (p *Program) render(c *Costs[int64]) string {
	var b strings.Builder
	var n Costs[int64]
	if c != nil {
		n = *c
	}
	op := func(text string, cs ...counter) {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(text)
		if c != nil && len(cs) > 0 {
			annotate(&b, cs...)
		}
	}
	op("OBSERVE "+join(p.ObserveFields), counter{"fires", n.Invocations}, counter{"sampled", n.Sampled})
	// A stage's counters annotate its first line only.
	stage := []counter{{"join-drops", n.DroppedByJoin}}
	for _, u := range p.Unpacks {
		op("UNPACK "+join(u.Fields), stage...)
		stage = nil
	}
	stage = []counter{{"filtered", n.TuplesFiltered}}
	for _, f := range p.Filters {
		op("FILTER "+f.Source().String(), stage...)
		stage = nil
	}
	for _, e := range p.Computes {
		op("COMPUTE " + e.Source().String())
	}
	if p.Pack != nil {
		op("PACK"+packKind(p.Pack.Spec)+" "+describePack(p.Pack.Spec),
			counter{"packed", n.TuplesPacked}, counter{"bytes", n.PackedBytes},
			counter{"refused", n.PackRefused}, counter{"evicted", n.PackEvictedTuples})
	}
	if p.Emit != nil {
		op("EMIT "+join(p.Emit.Schema), counter{"emitted", n.TuplesEmitted})
	}
	return b.String()
}

// counter is one name=value annotation on an operator line.
type counter struct {
	name string
	val  int64
}

// annotate appends a right-aligned "[name=v name=v]" block, omitting
// zero-valued counters after the first (the first is the operator's primary
// throughput counter and always shown).
func annotate(b *strings.Builder, cs ...counter) {
	b.WriteString("  [")
	wrote := false
	for i, c := range cs {
		if i > 0 && c.val == 0 {
			continue
		}
		if wrote {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%s=%d", c.name, c.val)
		wrote = true
	}
	b.WriteByte(']')
}

// packKind renders the retention suffix of a PACK operator.
func packKind(spec baggage.SetSpec) string {
	switch spec.Kind {
	case baggage.First:
		return "-FIRST"
	case baggage.FirstN:
		return fmt.Sprintf("-FIRST%d", spec.N)
	case baggage.Recent:
		return "-RECENT"
	case baggage.RecentN:
		return fmt.Sprintf("-RECENT%d", spec.N)
	case baggage.Agg:
		return "-AGG"
	}
	return ""
}

func describePack(spec baggage.SetSpec) string {
	if spec.Kind != baggage.Agg {
		return join(spec.Fields)
	}
	parts := make([]string, 0, len(spec.GroupBy)+len(spec.Aggs))
	for _, g := range spec.GroupBy {
		parts = append(parts, spec.Fields[g])
	}
	for _, a := range spec.Aggs {
		parts = append(parts, fmt.Sprintf("%s(%s)", a.Fn, spec.Fields[a.Pos]))
	}
	return strings.Join(parts, ", ")
}

func join(s tuple.Schema) string {
	if len(s) == 0 {
		return "-"
	}
	return strings.Join(s, ", ")
}

// Emitter receives tuples emitted by advice for process-local aggregation;
// the Pivot Tracing agent implements it.
type Emitter interface {
	// EmitTuple delivers one working tuple to the aggregator for the
	// given program's Emit operation. w is backed by a pooled per-fire
	// buffer and is only valid for the duration of the call: implementations
	// must fold or Clone it, never retain it.
	EmitTuple(p *Program, w tuple.Tuple)
}

// Host is an Emitter that also hears everything else advice reports; the
// agent implements it. An Emitter that is not a Host gets sampled tuples
// unweighted (its results under-count) and none of the notes.
type Host interface {
	Emitter
	// EmitTupleWeighted is EmitTuple with a sampling weight (> 1): tuples
	// of a sampled request carry their inverse-rate weight so COUNT/SUM
	// aggregate to unbiased estimates.
	EmitTupleWeighted(p *Program, w tuple.Tuple, weight float64)
	// NoteSampledOut: a crossing was suppressed because the request's
	// sampling decision said "not sampled".
	NoteSampledOut(p *Program)
	// NoteBaggageDrops hands over the eviction tombstones advice found in
	// the baggage, so truncated results are flagged partial end-to-end.
	NoteBaggageDrops(p *Program, recs []baggage.DropRecord)
	// NotePackStats reports the budget evictions and spec conflicts of
	// one of this process's packs, or the conflicts of one of its
	// unpacks (Conflicts alone). Each is reported at exactly one site, so
	// per-process sums are exact.
	NotePackStats(p *Program, st baggage.PackStats)
	// NoteQuarantine: the program tripped its circuit breaker. It fires
	// exactly once per program.
	NoteQuarantine(p *Program, reason string)
}

// Advice is a woven instance of a program bound to an emitter. It
// implements the tracepoint.Advice interface, and tracepoint.Observer with
// the positions Prog.Observe reads: a crossing it is woven at leaves the
// other positions of the tuple null unless other woven advice reads them.
type Advice struct {
	Prog    *Program
	Emitter Emitter
}

// Observed returns the positions of the crossing's tuple the pipeline
// reads: only those Prog.Observe names.
func (a *Advice) Observed() uint64 {
	var m uint64
	for _, i := range a.Prog.Observe {
		if uint(i) >= 64 {
			return math.MaxUint64
		}
		m |= 1 << i
	}
	return m
}

// Invoke runs the advice pipeline for one tracepoint crossing.
func (a *Advice) Invoke(ctx context.Context, vals tuple.Tuple) {
	p := a.Prog
	if p.Quarantined() {
		return
	}
	p.Cost.Invocations.Add(1)
	// Request-level sampling: honor the decision minted into the request's
	// baggage at creation. A suppressed request returns before the fire
	// scratch is even acquired — the sampled-out fast path allocates
	// nothing. A request with no decision (e.g. one originating in an
	// unmonitored process) is processed exactly, at weight 1.
	weight := 1.0
	var bag *baggage.Baggage
	if p.SampleRate > 0 {
		bag = baggage.FromContext(ctx)
		if r, ok := bag.SampleRate(p.QueryID); ok {
			if r <= 0 {
				p.Cost.Sampled.Add(1)
				if h, ok := a.Emitter.(Host); ok {
					h.NoteSampledOut(p)
				}
				return
			}
			weight = 1 / r
		}
	}
	fs := firePool.Get().(*fireScratch)
	defer func() {
		clear(fs.proj[:cap(fs.proj)]) // COMPUTE fills the room past its length
		clear(fs.working)
		clear(fs.spare)
		clear(fs.arena)
		clear(fs.unpacked)
		fs.proj, fs.working, fs.spare, fs.arena, fs.unpacked = fs.proj[:0], fs.working[:0], fs.spare[:0], fs.arena[:0], fs.unpacked[:0]
		if cap(fs.arena) > maxPooledArena {
			fs.spare, fs.arena = nil, nil
		}
		firePool.Put(fs)
	}()
	// Every working tuple has room for the program's computed columns, so
	// COMPUTE appends them in place.
	fs.proj = slices.Grow(vals.AppendProject(fs.proj[:0], p.Observe), len(p.Computes))
	working := append(fs.working[:0], fs.proj)
	fs.working = working

	// UNPACK: join tuples from causally-preceding advice. Missing baggage
	// or an empty slot means no causal predecessor: inner-join semantics
	// drop the observation.
	if bag == nil && (len(p.Unpacks) > 0 || p.Pack != nil) {
		bag = baggage.FromContext(ctx)
	}
	// Deliver eviction tombstones before the unpack loop: a fully-evicted
	// slot makes the join below drop this fire entirely, and the drop
	// accounting must survive exactly that case.
	if bag != nil && len(p.Unpacks) > 0 {
		if h, ok := a.Emitter.(Host); ok {
			if recs := bag.DropRecords(p.QueryID); len(recs) > 0 {
				h.NoteBaggageDrops(p, recs)
			}
		}
	}
	ceiling := p.Safety.costCeiling()
	for _, u := range p.Unpacks {
		if bag == nil {
			p.Cost.DroppedByJoin.Add(1)
			return
		}
		// The slot's encoded tuples decode into the arena: joined tuples
		// copy their values, so growing it past them moves nothing.
		var conflicts int64
		fs.unpacked, fs.arena, conflicts = bag.AppendUnpack(fs.unpacked[:0], fs.arena, u.Slot)
		if conflicts > 0 {
			a.notePackStats(baggage.PackStats{Conflicts: conflicts})
		}
		unpacked := fs.unpacked
		// A slot of another width than the program's is hostile or stale:
		// joining it would misalign every later position.
		for _, t := range unpacked {
			if len(t) != len(u.Fields) {
				unpacked = nil
				break
			}
		}
		if len(unpacked) == 0 {
			p.Cost.DroppedByJoin.Add(1)
			return
		}
		// Cartesian joins are where a single fire's cost can explode;
		// check the ceiling before materializing the product.
		if ceiling >= 0 && int64(len(working))*int64(len(unpacked)) > ceiling {
			a.quarantine(fmt.Sprintf("fire cost %d×%d tuples exceeds ceiling %d at unpack %s",
				len(working), len(unpacked), ceiling, u.Slot))
			return
		}
		// Each joined tuple is carved off the arena with room for the
		// computed columns and no more, so COMPUTE fills that room and
		// never its neighbour; arena growth leaves earlier tuples where
		// they were.
		next := fs.spare[:0]
		for _, w := range working {
			for _, t := range unpacked {
				at := len(fs.arena)
				fs.arena = append(append(fs.arena, w...), t...)
				end := len(fs.arena)
				fs.arena = append(fs.arena, make(tuple.Tuple, len(p.Computes))...)
				next = append(next, fs.arena[at:end:len(fs.arena)])
			}
		}
		fs.spare, fs.working, working = working, next, next
	}

	// FILTER
	for i := range p.Filters {
		f := &p.Filters[i]
		kept := working[:0]
		for _, w := range working {
			if f.Eval(w).Bool() {
				kept = append(kept, w)
			}
		}
		if dropped := len(working) - len(kept); dropped > 0 {
			p.Cost.TuplesFiltered.Add(int64(dropped))
		}
		working = kept
		if len(working) == 0 {
			return
		}
	}

	// COMPUTE: append derived columns, into the room each tuple reserved.
	for i := range p.Computes {
		c := &p.Computes[i]
		for j, w := range working {
			working[j] = append(w, c.Eval(w))
		}
	}

	// PACK: budgeted — tombstoned slots refuse the pack and over-budget
	// queries evict whole groups with tombstone accounting.
	if p.Pack != nil && bag != nil {
		var st baggage.PackStats
		var packedBytes int64
		for _, w := range working {
			packedBytes += int64(tuple.SizeProjected(w, p.Pack.Source))
			st.Add(bag.PackFrom(p.QueryID, p.Pack.Slot, p.Pack.Spec, p.Safety.Budget, w, p.Pack.Source))
		}
		p.Cost.TuplesPacked.Add(st.Packed)
		p.Cost.PackedBytes.Add(packedBytes)
		if st.RefusedTuples > 0 {
			p.Cost.PackRefused.Add(st.RefusedTuples)
		}
		if st.EvictedGroups > 0 {
			p.Cost.PackEvictedGroups.Add(st.EvictedGroups)
			p.Cost.PackEvictedTuples.Add(st.EvictedTuples)
			p.Cost.PackEvictedBytes.Add(st.EvictedBytes)
		}
		if st.EvictedGroups > 0 || st.Conflicts > 0 {
			a.notePackStats(st)
		}
	}

	// EMIT
	if p.Emit != nil && a.Emitter != nil {
		if h, ok := a.Emitter.(Host); ok && weight != 1 {
			for _, w := range working {
				h.EmitTupleWeighted(p, w, weight)
			}
		} else {
			for _, w := range working {
				a.Emitter.EmitTuple(p, w)
			}
		}
		p.Cost.TuplesEmitted.Add(int64(len(working)))
	}
}

// notePackStats hands st to the emitter, if it is a Host.
func (a *Advice) notePackStats(st baggage.PackStats) {
	if h, ok := a.Emitter.(Host); ok {
		h.NotePackStats(a.Prog, st)
	}
}
