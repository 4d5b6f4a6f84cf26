// Package spans implements causal span capture and request-DAG
// reconstruction: the observability companion to Pivot Tracing's
// happened-before joins.
//
// Every tracepoint crossing of a request (when capture is enabled) emits one
// fixed-size span record. Causality rides in the baggage's reserved trace
// slot (baggage.TraceSlot) as a FRONTIER set of (trace, span, start) tuples:
// a crossing unpacks the frontier to learn its parents, mints its own span
// id, and packs itself as the new frontier. Split freezes the frontier per
// branch and Join unions the branch frontiers, so fan-out and fan-in are
// preserved in the recorded parent edges — the reconstruction below recovers
// the request's causal DAG, not just a chain.
//
// Span ids are minted locally (no coordination): a splitmix64 finalizer over
// a per-recorder seed plus a counter. The finalizer is a bijection on
// uint64, so recorders with disjoint (seed + counter) ranges never collide:
// each seed owns the high 32 bits and the counter counts in the low 32 —
// random high bits per runtime in the pivot layer, procID<<32 in a
// simulated cluster.
package spans

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baggage"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Span is one tracepoint crossing of one request: a fixed-size record.
// Start is the crossing's virtual-time instant; Duration is the elapsed
// virtual time since the causally-latest parent crossing — the cost of the
// execution segment that ended here, attributable to this span's process.
type Span struct {
	TraceID    uint64
	SpanID     uint64
	Parents    []uint64 // parent span ids (the baggage frontier at crossing)
	Tracepoint string
	Host       string
	ProcName   string
	Start      time.Duration
	Duration   time.Duration
}

// mix is the splitmix64 finalizer: a bijection on uint64 with good
// avalanche, so sequential counters become well-distributed unique ids.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Recorder captures spans at tracepoint crossings into a bounded ring. It
// implements tracepoint.SpanSink; the agent attaches it via
// Registry.SetSpanSink and drains it on every flush. When the ring is full
// the oldest span is overwritten and counted dropped — capture is strictly
// best-effort and must never grow without bound.
type Recorder struct {
	seed    uint64
	counter atomic.Uint64

	mu      sync.Mutex
	ring    []Span
	head    int // oldest element when the ring is full
	dropped int64

	captured atomic.Int64

	// note, if not nil, is told of the spec conflicts a crossing met in the
	// frontier slot: a foreign slot it replaced or a merge dropped.
	note func(baggage.PackStats)
}

// NewRecorder returns a recorder minting ids from seed with a ring of the
// given capacity, which must be positive. note, if not nil, receives the
// PackStats of every crossing that met a spec conflict in the frontier
// slot.
func NewRecorder(seed uint64, capacity int, note func(baggage.PackStats)) *Recorder {
	return &Recorder{seed: seed, ring: make([]Span, 0, capacity), note: note}
}

// TracepointCrossed records one span for the crossing. Crossings without
// baggage are skipped: spans are request-scoped, and an execution that
// carries no baggage has no causal identity to record.
func (r *Recorder) TracepointCrossed(ctx context.Context, tpName string) {
	bag := baggage.FromContext(ctx)
	if bag == nil {
		return
	}
	now := tracepoint.Now(ctx)
	id := mix(r.seed + r.counter.Add(1))

	var (
		traceID uint64
		parents []uint64
		latest  = time.Duration(-1)
	)
	frontier, _, conflicts := bag.AppendUnpack(nil, nil, baggage.TraceSlot)
	if len(frontier) == 0 {
		// Root crossing: the first span's id names the trace.
		traceID = id
	} else {
		for _, t := range frontier {
			if len(t) != 3 {
				continue
			}
			traceID = uint64(t[0].Int())
			parents = append(parents, uint64(t[1].Int()))
			if s := time.Duration(t[2].Int()); s > latest {
				latest = s
			}
		}
		if traceID == 0 && len(parents) == 0 {
			traceID = id
		}
	}
	var dur time.Duration
	if latest >= 0 && now > latest {
		dur = now - latest
	}
	// Advance the frontier: this span becomes the branch's causal tip. The
	// pack goes through the budget machinery for uniformity, but the trace
	// slot is excluded from budget accounting so it can never evict (or be
	// evicted by) query data.
	st := bag.PackBudgeted("", baggage.TraceSlot, baggage.TraceSpec, baggage.Budget{},
		tuple.Tuple{tuple.Int(int64(traceID)), tuple.Int(int64(id)), tuple.Int(int64(now))})
	st.Conflicts += conflicts
	if st.Conflicts > 0 && r.note != nil {
		r.note(st)
	}

	info := tracepoint.ProcFromContext(ctx)
	r.push(Span{
		TraceID:    traceID,
		SpanID:     id,
		Parents:    parents,
		Tracepoint: tpName,
		Host:       info.Host,
		ProcName:   info.ProcName,
		Start:      now,
		Duration:   dur,
	})
}

func (r *Recorder) push(sp Span) {
	r.captured.Add(1)
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, sp)
	} else {
		r.ring[r.head] = sp
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// Drain removes and returns all buffered spans in arrival order.
func (r *Recorder) Drain() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return nil
	}
	out := make([]Span, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	r.ring = r.ring[:0]
	r.head = 0
	return out
}

// Captured returns the total spans recorded (including ones later
// overwritten in the ring).
func (r *Recorder) Captured() int64 { return r.captured.Load() }

// Dropped returns the spans overwritten before a drain could ship them.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Builder accumulates spans (from any process, in any order, with
// duplicates) and reconstructs per-request DAGs on demand. Add is
// idempotent by (trace, span) id, so retention replay of a batch is
// harmless, and reconstruction tolerates missing parents — orphaned spans
// are adopted under a synthetic root rather than lost.
type Builder struct {
	mu     sync.Mutex
	traces map[uint64]map[uint64]Span
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{traces: make(map[uint64]map[uint64]Span)}
}

// Add records one span. Duplicate (trace, span) ids are ignored: the first
// copy wins, making replayed batches idempotent.
func (b *Builder) Add(sp Span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	tr, ok := b.traces[sp.TraceID]
	if !ok {
		tr = make(map[uint64]Span)
		b.traces[sp.TraceID] = tr
	}
	if _, dup := tr[sp.SpanID]; dup {
		return
	}
	tr[sp.SpanID] = sp
}

// AddBatch records every span in the batch.
func (b *Builder) AddBatch(sps []Span) {
	for _, sp := range sps {
		b.Add(sp)
	}
}

// TraceIDs returns the known trace ids, sorted.
func (b *Builder) TraceIDs() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]uint64, 0, len(b.traces))
	for id := range b.traces {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of known traces.
func (b *Builder) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.traces)
}

// Node is one span in a reconstructed DAG, with resolved parent and child
// edges (after transitive reduction).
type Node struct {
	Span
	Parents  []*Node
	Children []*Node
}

// Finish returns the crossing instant — spans measure the segment *ending*
// at the crossing, so a node finishes at its Start.
func (n *Node) Finish() time.Duration { return n.Start }

// Trace is one request's reconstructed causal DAG.
type Trace struct {
	ID uint64
	// Root is the tree/DAG entry point. When the true root span was lost
	// (or the trace has several independent roots), Root is a synthetic
	// node with SpanID 0 adopting them, and Synthetic is set.
	Root      *Node
	Synthetic bool
	// Nodes holds every real span's node, ordered by (Start, SpanID).
	Nodes []*Node
	// Orphans counts spans whose recorded parents were all missing — they
	// were adopted under the synthetic root.
	Orphans int
}

// Trace reconstructs the DAG for one trace id, or returns nil if unknown.
//
// Reconstruction invariants:
//   - idempotent: duplicates were already dropped by Add, and the result is
//     a pure function of the stored span set (arrival order is irrelevant);
//   - loss-tolerant: parent ids that never arrived are ignored; a span left
//     with no resolvable parent but a non-empty parent list is an orphan
//     and is adopted under a synthetic root;
//   - transitively reduced: the baggage frontier can name an ancestor
//     alongside the true parent (a frozen pre-split instance survives the
//     join merge), so an edge u→v is dropped when u is an ancestor of
//     another parent of v.
func (b *Builder) Trace(id uint64) *Trace {
	b.mu.Lock()
	stored, ok := b.traces[id]
	if !ok {
		b.mu.Unlock()
		return nil
	}
	spans := make([]Span, 0, len(stored))
	for _, sp := range stored {
		spans = append(spans, sp)
	}
	b.mu.Unlock()

	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	nodes := make(map[uint64]*Node, len(spans))
	tr := &Trace{ID: id, Nodes: make([]*Node, 0, len(spans))}
	for _, sp := range spans {
		n := &Node{Span: sp}
		nodes[sp.SpanID] = n
		tr.Nodes = append(tr.Nodes, n)
	}

	// Resolve parent edges, applying transitive reduction over the ids
	// (ancestor sets are memoized over the raw recorded edges).
	anc := newAncestry(stored)
	var roots, orphans []*Node
	for _, n := range tr.Nodes {
		for _, pid := range n.Span.Parents {
			p, ok := nodes[pid]
			if !ok {
				continue // parent span lost: tolerate
			}
			if redundant(n.Span.Parents, pid, anc) {
				continue
			}
			n.Parents = append(n.Parents, p)
			p.Children = append(p.Children, n)
		}
		if len(n.Parents) == 0 {
			if len(n.Span.Parents) > 0 {
				orphans = append(orphans, n)
			} else {
				roots = append(roots, n)
			}
		}
	}
	tr.Orphans = len(orphans)

	entry := append(roots, orphans...)
	if len(entry) == 1 && len(orphans) == 0 {
		tr.Root = entry[0]
		return tr
	}
	// Lost root, multiple roots, or orphaned subtrees: adopt everything
	// parentless under a synthetic root so nothing is dropped from view.
	syn := &Node{Span: Span{TraceID: id, Tracepoint: "(root)"}}
	if len(entry) > 0 {
		syn.Span.Start = entry[0].Start
	}
	for _, n := range entry {
		n.Parents = append(n.Parents, syn)
		syn.Children = append(syn.Children, n)
	}
	tr.Root = syn
	tr.Synthetic = true
	return tr
}

// ancestry memoizes transitive ancestor sets over recorded parent edges.
type ancestry struct {
	spans map[uint64]Span
	memo  map[uint64]map[uint64]bool
}

func newAncestry(spans map[uint64]Span) *ancestry {
	return &ancestry{spans: spans, memo: make(map[uint64]map[uint64]bool)}
}

// ancestors returns the transitive ancestors of id (excluding id itself).
func (a *ancestry) ancestors(id uint64) map[uint64]bool {
	if s, ok := a.memo[id]; ok {
		return s
	}
	s := make(map[uint64]bool)
	a.memo[id] = s // break cycles defensively; recorded edges are acyclic
	sp, ok := a.spans[id]
	if !ok {
		return s
	}
	for _, pid := range sp.Parents {
		s[pid] = true
		for anc := range a.ancestors(pid) {
			s[anc] = true
		}
	}
	return s
}

// redundant reports whether the edge pid→child is implied by another parent
// (pid is an ancestor of a sibling parent).
func redundant(parents []uint64, pid uint64, anc *ancestry) bool {
	for _, other := range parents {
		if other == pid {
			continue
		}
		if anc.ancestors(other)[pid] {
			return true
		}
	}
	return false
}

// CriticalPath returns the trace's longest causal chain by finish time:
// starting from the node with the latest finish, walk back through the
// latest-finishing parent to a root. The path is returned root-first, and
// excludes a synthetic root.
func (t *Trace) CriticalPath() []*Node {
	if len(t.Nodes) == 0 {
		return nil
	}
	last := t.Nodes[0]
	for _, n := range t.Nodes[1:] {
		if n.Finish() > last.Finish() {
			last = n
		}
	}
	var rev []*Node
	for n := last; n != nil && n.SpanID != 0; {
		rev = append(rev, n)
		var next *Node
		for _, p := range n.Parents {
			if p.SpanID == 0 {
				continue
			}
			if next == nil || p.Finish() > next.Finish() {
				next = p
			}
		}
		n = next
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TierLatency attributes the critical path's time to process tiers: each
// critical-path span's Duration — the segment ending at its crossing — is
// charged to its own process. The map's values sum to (approximately) the
// end-to-end critical-path latency; time before the root crossing is not
// observable and not charged.
func (t *Trace) TierLatency() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, n := range t.CriticalPath() {
		out[n.ProcName] += n.Duration
	}
	return out
}

// Latency returns the end-to-end virtual-time latency of the trace: latest
// finish minus earliest start.
func (t *Trace) Latency() time.Duration {
	if len(t.Nodes) == 0 {
		return 0
	}
	min, max := t.Nodes[0].Start, t.Nodes[0].Finish()
	for _, n := range t.Nodes[1:] {
		if n.Start < min {
			min = n.Start
		}
		if f := n.Finish(); f > max {
			max = f
		}
	}
	return max - min
}

// RenderTree renders the trace as an indented tree with per-span timings:
//
//	trace 00000000deadbeef · 5 spans · 3 tiers · 1.2ms
//	└─ client.request  [client@host-0]  @0s
//	   ├─ server.recv  [server@host-1]  @200µs +200µs
//	   ...
//
// A node reached by several parents (a join) is rendered under its first
// parent and referenced by id elsewhere. Timestamps are relative to the
// trace's earliest crossing, so wall-clock and virtual-clock traces read
// the same way.
func (t *Trace) RenderTree() string {
	var b strings.Builder
	procs := map[string]bool{}
	var t0 time.Duration
	for i, n := range t.Nodes {
		procs[n.ProcName] = true
		if i == 0 || n.Start < t0 {
			t0 = n.Start
		}
	}
	fmt.Fprintf(&b, "trace %016x · %d spans · %d tiers · %s\n",
		t.ID, len(t.Nodes), len(procs), t.Latency())
	if t.Root == nil {
		return b.String()
	}
	seen := map[uint64]bool{}
	var walk func(n *Node, prefix string, isLast bool)
	walk = func(n *Node, prefix string, isLast bool) {
		branch, childPrefix := "├─ ", prefix+"│  "
		if isLast {
			branch, childPrefix = "└─ ", prefix+"   "
		}
		if seen[n.SpanID] {
			fmt.Fprintf(&b, "%s%s(join → %s #%x)\n", prefix, branch, n.Tracepoint, n.SpanID&0xffff)
			return
		}
		seen[n.SpanID] = true
		if n.SpanID == 0 {
			fmt.Fprintf(&b, "%s%s%s\n", prefix, branch, n.Tracepoint)
		} else {
			fmt.Fprintf(&b, "%s%s%s  [%s@%s]  @%s", prefix, branch, n.Tracepoint, n.ProcName, n.Host, n.Start-t0)
			if n.Duration > 0 {
				fmt.Fprintf(&b, " +%s", n.Duration)
			}
			if len(n.Parents) > 1 {
				fmt.Fprintf(&b, "  (join ×%d)", len(n.Parents))
			}
			b.WriteByte('\n')
		}
		kids := append([]*Node(nil), n.Children...)
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].Start != kids[j].Start {
				return kids[i].Start < kids[j].Start
			}
			return kids[i].SpanID < kids[j].SpanID
		})
		for i, c := range kids {
			walk(c, childPrefix, i == len(kids)-1)
		}
	}
	walk(t.Root, "", true)
	return b.String()
}

// Summary renders a one-line-per-trace table over the builder's traces:
// trace id, span count, tier count, end-to-end latency, critical-path
// time, and the dominant tier with its share of the critical path.
func (b *Builder) Summary() string {
	ids := b.TraceIDs()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %6s %6s %12s %12s  %s\n", "TRACE", "SPANS", "TIERS", "LATENCY", "CRIT", "DOMINANT TIER")
	for _, id := range ids {
		t := b.Trace(id)
		if t == nil {
			continue
		}
		procs := map[string]bool{}
		for _, n := range t.Nodes {
			procs[n.ProcName] = true
		}
		var domTier string
		var domLat, total time.Duration
		for tier, lat := range t.TierLatency() {
			total += lat
			if lat > domLat || (lat == domLat && (domTier == "" || tier < domTier)) {
				domTier, domLat = tier, lat
			}
		}
		dom := "-"
		if domTier != "" && total > 0 {
			dom = fmt.Sprintf("%s (%d%%)", domTier, int(100*domLat/total))
		}
		fmt.Fprintf(&sb, "%016x %6d %6d %12s %12s  %s\n",
			t.ID, len(t.Nodes), len(procs), t.Latency(), total, dom)
	}
	return sb.String()
}
