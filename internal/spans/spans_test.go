package spans

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baggage"
	"repro/internal/tracepoint"
)

// fakeClock is a settable virtual clock for deterministic span timings.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// env builds a context carrying baggage, proc identity and a virtual clock.
func env(t *testing.T, proc string) (context.Context, *baggage.Baggage, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	bag := baggage.New()
	ctx := baggage.NewContext(context.Background(), bag)
	ctx = tracepoint.WithProc(ctx, tracepoint.ProcInfo{Host: "h-" + proc, ProcName: proc, ProcID: 1})
	ctx = tracepoint.WithClock(ctx, clk)
	return ctx, bag, clk
}

func TestRecorderBuildsCausalChain(t *testing.T) {
	r := NewRecorder(1<<32, 16, nil)
	ctx, _, clk := env(t, "client")
	r.TracepointCrossed(ctx, "a")
	clk.advance(10 * time.Millisecond)
	r.TracepointCrossed(ctx, "b")
	clk.advance(5 * time.Millisecond)
	r.TracepointCrossed(ctx, "c")

	got := r.Drain()
	if len(got) != 3 {
		t.Fatalf("drained %d spans, want 3", len(got))
	}
	a, bsp, c := got[0], got[1], got[2]
	if a.TraceID != a.SpanID {
		t.Errorf("root span must name the trace: trace %x, span %x", a.TraceID, a.SpanID)
	}
	if len(a.Parents) != 0 || a.Duration != 0 {
		t.Errorf("root span parents=%v dur=%v, want none/0", a.Parents, a.Duration)
	}
	if bsp.TraceID != a.TraceID || c.TraceID != a.TraceID {
		t.Errorf("trace id not propagated: %x %x %x", a.TraceID, bsp.TraceID, c.TraceID)
	}
	if len(bsp.Parents) != 1 || bsp.Parents[0] != a.SpanID {
		t.Errorf("b parents = %x, want [%x]", bsp.Parents, a.SpanID)
	}
	if bsp.Duration != 10*time.Millisecond {
		t.Errorf("b duration = %v, want 10ms", bsp.Duration)
	}
	if len(c.Parents) != 1 || c.Parents[0] != bsp.SpanID {
		t.Errorf("c parents = %x, want [%x]", c.Parents, bsp.SpanID)
	}
	if c.Duration != 5*time.Millisecond {
		t.Errorf("c duration = %v, want 5ms", c.Duration)
	}
	if r.Captured() != 3 || r.Dropped() != 0 {
		t.Errorf("captured=%d dropped=%d, want 3/0", r.Captured(), r.Dropped())
	}
}

func TestRecorderSkipsBaggagelessCrossings(t *testing.T) {
	r := NewRecorder(1, 4, nil)
	r.TracepointCrossed(context.Background(), "a")
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("baggage-less crossing recorded %d spans, want 0", len(got))
	}
}

func TestRecorderRingOverflowCountsDrops(t *testing.T) {
	r := NewRecorder(7, 2, nil)
	ctx, _, clk := env(t, "p")
	for i := 0; i < 5; i++ {
		r.TracepointCrossed(ctx, "tp")
		clk.advance(time.Millisecond)
	}
	got := r.Drain()
	if len(got) != 2 {
		t.Fatalf("ring of 2 drained %d spans", len(got))
	}
	// The survivors are the two most recent, in arrival order.
	if got[0].Start != 3*time.Millisecond || got[1].Start != 4*time.Millisecond {
		t.Errorf("survivors start at %v, %v; want 3ms, 4ms", got[0].Start, got[1].Start)
	}
	if r.Captured() != 5 || r.Dropped() != 3 {
		t.Errorf("captured=%d dropped=%d, want 5/3", r.Captured(), r.Dropped())
	}
}

func TestRecorderSplitJoinProducesDAG(t *testing.T) {
	r := NewRecorder(9, 16, nil)
	ctx, bag, clk := env(t, "root")
	r.TracepointCrossed(ctx, "start")

	left, right := bag.Split()
	lctx := tracepoint.WithClock(tracepoint.WithProc(baggage.NewContext(context.Background(), left),
		tracepoint.ProcInfo{Host: "h1", ProcName: "left", ProcID: 1}), clk)
	rctx := tracepoint.WithClock(tracepoint.WithProc(baggage.NewContext(context.Background(), right),
		tracepoint.ProcInfo{Host: "h2", ProcName: "right", ProcID: 1}), clk)
	clk.advance(time.Millisecond)
	r.TracepointCrossed(lctx, "branch.l")
	clk.advance(time.Millisecond)
	r.TracepointCrossed(rctx, "branch.r")

	joined := baggage.Join(left, right)
	jctx := tracepoint.WithClock(tracepoint.WithProc(baggage.NewContext(context.Background(), joined),
		tracepoint.ProcInfo{Host: "h0", ProcName: "root", ProcID: 1}), clk)
	clk.advance(time.Millisecond)
	r.TracepointCrossed(jctx, "end")

	spans := r.Drain()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	b := NewBuilder()
	b.AddBatch(spans)
	tr := b.Trace(spans[0].TraceID)
	if tr == nil {
		t.Fatal("trace not found")
	}
	if tr.Synthetic {
		t.Fatal("complete trace must not need a synthetic root")
	}
	end := tr.Nodes[len(tr.Nodes)-1]
	if end.Tracepoint != "end" {
		t.Fatalf("last node = %q, want end", end.Tracepoint)
	}
	// The join sees both branches as parents — and only the branches:
	// the pre-split frontier (start) must be transitively reduced away.
	if len(end.Parents) != 2 {
		t.Fatalf("join node has %d parents (%v), want 2", len(end.Parents), end.Span.Parents)
	}
	for _, p := range end.Parents {
		if !strings.HasPrefix(p.Tracepoint, "branch.") {
			t.Errorf("join parent %q, want a branch span", p.Tracepoint)
		}
	}
	if tr.Root.Tracepoint != "start" || len(tr.Root.Children) != 2 {
		t.Errorf("root %q with %d children, want start with 2", tr.Root.Tracepoint, len(tr.Root.Children))
	}
}

// handSpan builds a span for builder-level tests.
func handSpan(trace, id uint64, parents []uint64, tp, proc string, start, dur time.Duration) Span {
	return Span{TraceID: trace, SpanID: id, Parents: parents, Tracepoint: tp,
		Host: "h-" + proc, ProcName: proc, Start: start, Duration: dur}
}

func diamond() []Span {
	return []Span{
		handSpan(1, 10, nil, "a", "fe", 0, 0),
		handSpan(1, 20, []uint64{10}, "b", "mid", 1*time.Millisecond, 1*time.Millisecond),
		handSpan(1, 30, []uint64{10}, "c", "mid", 2*time.Millisecond, 2*time.Millisecond),
		// The join's frontier also carries the pre-split ancestor 10.
		handSpan(1, 40, []uint64{20, 30, 10}, "d", "be", 5*time.Millisecond, 3*time.Millisecond),
	}
}

func TestBuilderOutOfOrderArrival(t *testing.T) {
	want := NewBuilder()
	want.AddBatch(diamond())
	ref := want.Trace(1).RenderTree()

	got := NewBuilder()
	ds := diamond()
	for i := len(ds) - 1; i >= 0; i-- { // reversed arrival
		got.Add(ds[i])
	}
	if tree := got.Trace(1).RenderTree(); tree != ref {
		t.Errorf("out-of-order reconstruction differs:\n%s\nvs\n%s", tree, ref)
	}
}

func TestBuilderDuplicateReplayIdempotent(t *testing.T) {
	b := NewBuilder()
	b.AddBatch(diamond())
	ref := b.Trace(1).RenderTree()
	b.AddBatch(diamond()) // retention replay re-delivers the batch
	tr := b.Trace(1)
	if len(tr.Nodes) != 4 {
		t.Fatalf("replay grew the trace to %d nodes", len(tr.Nodes))
	}
	if tree := tr.RenderTree(); tree != ref {
		t.Errorf("replayed reconstruction differs:\n%s\nvs\n%s", tree, ref)
	}
}

func TestBuilderTransitiveReduction(t *testing.T) {
	b := NewBuilder()
	b.AddBatch(diamond())
	tr := b.Trace(1)
	var d *Node
	for _, n := range tr.Nodes {
		if n.SpanID == 40 {
			d = n
		}
	}
	if d == nil {
		t.Fatal("join node missing")
	}
	if len(d.Parents) != 2 {
		t.Fatalf("join parents = %d, want 2 (ancestor edge 10 reduced)", len(d.Parents))
	}
	for _, p := range d.Parents {
		if p.SpanID == 10 {
			t.Error("transitive edge to 10 survived reduction")
		}
	}
}

func TestBuilderOrphanAdoption(t *testing.T) {
	b := NewBuilder()
	for _, sp := range diamond() {
		if sp.SpanID == 10 {
			continue // root span lost in transit
		}
		b.Add(sp)
	}
	tr := b.Trace(1)
	if !tr.Synthetic {
		t.Fatal("lost root must force a synthetic root")
	}
	if tr.Orphans != 2 {
		t.Errorf("orphans = %d, want 2 (b and c)", tr.Orphans)
	}
	if len(tr.Nodes) != 3 {
		t.Errorf("nodes = %d, want 3", len(tr.Nodes))
	}
	// d still hangs off b and c; nothing is dropped from the rendering.
	tree := tr.RenderTree()
	for _, tp := range []string{"b", "c", "d"} {
		if !strings.Contains(tree, tp) {
			t.Errorf("render lost span %q:\n%s", tp, tree)
		}
	}
}

func TestCriticalPathAndTierLatency(t *testing.T) {
	b := NewBuilder()
	b.AddBatch(diamond())
	tr := b.Trace(1)
	cp := tr.CriticalPath()
	var names []string
	for _, n := range cp {
		names = append(names, n.Tracepoint)
	}
	// d finishes last; its latest-finishing parent is c; then a.
	if got := strings.Join(names, ">"); got != "a>c>d" {
		t.Errorf("critical path = %s, want a>c>d", got)
	}
	tiers := tr.TierLatency()
	if tiers["mid"] != 2*time.Millisecond || tiers["be"] != 3*time.Millisecond {
		t.Errorf("tier latency = %v, want mid=2ms be=3ms", tiers)
	}
	if tr.Latency() != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms", tr.Latency())
	}
}

func TestSummaryRendersEveryTrace(t *testing.T) {
	b := NewBuilder()
	b.AddBatch(diamond())
	b.Add(handSpan(2, 50, nil, "solo", "fe", 0, 0))
	s := b.Summary()
	for _, want := range []string{"0000000000000001", "0000000000000002", "TRACE", "SPANS"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestMixIsInjectiveOverSmallRange(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		id := mix(i)
		if seen[id] {
			t.Fatalf("collision at %d", i)
		}
		seen[id] = true
	}
}

// TestBuilderDuplicateBatchFirstCopyWins: a replayed batch whose spans
// carry different field values (a buggy or racing reporter) must not
// overwrite the copies already stored.
func TestBuilderDuplicateBatchFirstCopyWins(t *testing.T) {
	b := NewBuilder()
	b.AddBatch(diamond())
	forged := diamond()
	for i := range forged {
		forged[i].Tracepoint = "forged"
		forged[i].Start += time.Hour
	}
	// The forged replay also smuggles in one genuinely new span.
	forged = append(forged, Span{TraceID: 1, SpanID: 50, Parents: []uint64{40},
		Tracepoint: "e", Start: 5 * time.Millisecond})
	b.AddBatch(forged)

	tr := b.Trace(1)
	if len(tr.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5 (4 originals + 1 new)", len(tr.Nodes))
	}
	for _, n := range tr.Nodes {
		if n.SpanID != 50 && n.Tracepoint == "forged" {
			t.Errorf("span %d was overwritten by the duplicate batch", n.SpanID)
		}
	}
}

// TestBuilderOrphanResolvedByLateParent: reconstruction is a pure
// function of the stored set, so an orphan adopted under a synthetic
// root is re-homed when its parent finally arrives in a late batch
// (reordered delivery across agent reports).
func TestBuilderOrphanResolvedByLateParent(t *testing.T) {
	b := NewBuilder()
	var root Span
	for _, sp := range diamond() {
		if sp.SpanID == 10 {
			root = sp
			continue // root delayed in transit
		}
		b.Add(sp)
	}
	if tr := b.Trace(1); !tr.Synthetic || tr.Orphans != 2 {
		t.Fatalf("before late delivery: synthetic=%v orphans=%d, want true/2", tr.Synthetic, tr.Orphans)
	}

	b.AddBatch([]Span{root}) // the delayed batch lands
	tr := b.Trace(1)
	if tr.Synthetic || tr.Orphans != 0 {
		t.Fatalf("after late delivery: synthetic=%v orphans=%d, want false/0", tr.Synthetic, tr.Orphans)
	}
	if tr.Root.SpanID != 10 {
		t.Fatalf("root = %d, want the late-arriving 10", tr.Root.SpanID)
	}
}

// TestCriticalPathTieBreaks pins the deterministic tie-breaks: when two
// spans share the latest finish instant the path ends at the one with
// the smaller SpanID, and when a node's parents tie the walk keeps the
// first recorded parent.
func TestCriticalPathTieBreaks(t *testing.T) {
	b := NewBuilder()
	b.AddBatch([]Span{
		{TraceID: 7, SpanID: 1, Tracepoint: "root", Start: 0},
		{TraceID: 7, SpanID: 2, Parents: []uint64{1}, Tracepoint: "a", Start: 10 * time.Millisecond},
		{TraceID: 7, SpanID: 3, Parents: []uint64{1}, Tracepoint: "b", Start: 10 * time.Millisecond},
	})
	path := b.Trace(7).CriticalPath()
	ids := pathIDs(path)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("endpoint tie path = %v, want [1 2] (smaller SpanID wins)", ids)
	}

	// A leaf whose two parents tie: the first recorded parent (3) wins.
	b.Add(Span{TraceID: 7, SpanID: 4, Parents: []uint64{3, 2}, Tracepoint: "join",
		Start: 20 * time.Millisecond})
	ids = pathIDs(b.Trace(7).CriticalPath())
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 4 {
		t.Fatalf("parent tie path = %v, want [1 3 4] (first recorded parent wins)", ids)
	}
}

func pathIDs(path []*Node) []uint64 {
	out := make([]uint64, len(path))
	for i, n := range path {
		out[i] = n.SpanID
	}
	return out
}
