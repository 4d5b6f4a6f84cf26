package tracepoint_test

// A woven crossing fills only the tuple positions its advice observes.
// These tests count the clock reads and process-identity lookups a crossing
// makes, and check every tuple advice and the failpoint hook are handed
// against the tuple a crossing for advice that observes everything builds.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baseline"
	"repro/internal/query"
	"repro/internal/randtest"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// countingClock is a Clock that counts its reads.
type countingClock struct {
	now   time.Duration
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.now
}

// procCountingCtx counts the lookups of the process identity that pass
// through it.
type procCountingCtx struct {
	context.Context
	lookups *atomic.Int64
}

func (c procCountingCtx) Value(key any) any {
	if _, ok := key.(tracepoint.ProcKey); ok {
		c.lookups.Add(1)
	}
	return c.Context.Value(key)
}

type discard struct{}

func (discard) EmitTuple(*advice.Program, tuple.Tuple) {}

// observing returns advice for a program that observes the named fields of
// tp and emits them.
func observing(tp *tracepoint.Tracepoint, fields ...string) *advice.Advice {
	prog := &advice.Program{QueryID: "q", Tracepoint: tp.Name, ObserveFields: fields}
	for _, f := range fields {
		prog.Observe = append(prog.Observe, tp.Schema().Index(f))
	}
	return &advice.Advice{Prog: prog, Emitter: discard{}}
}

// TestCrossingReadsClockAndProcOnlyWhenObserved: a crossing reads the
// context's clock only while some woven advice observes "time", and walks
// the context for the process identity only while some woven advice
// observes "host", "procName" or "procId" — once per crossing however many
// do. Advice that states no reads (the baseline's probe) gets both.
func TestCrossingReadsClockAndProcOnlyWhenObserved(t *testing.T) {
	reg := tracepoint.NewRegistry()
	tp := reg.Define("DN.read", "delta")
	clock := &countingClock{now: time.Second}
	var lookups atomic.Int64
	ctx := tracepoint.WithProc(context.Background(), tracepoint.ProcInfo{Host: "h", ProcName: "DataNode", ProcID: 3})
	ctx = tracepoint.WithClock(procCountingCtx{ctx, &lookups}, clock)

	q, err := query.Parse(`From e In DN.read Select e.delta`)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := baseline.New(q, reg)
	if err != nil {
		t.Fatal(err)
	}
	probe := ev.Probes()["DN.read"]
	delta := observing(tp, "delta")
	host := observing(tp, "host", "delta")
	timed := observing(tp, "time", "procName")
	weave := func(a tracepoint.Advice) {
		if err := reg.Weave("DN.read", a); err != nil {
			t.Fatal(err)
		}
	}
	unweave := func(a tracepoint.Advice) { reg.Unweave("DN.read", a) }
	steps := []struct {
		name         string
		do           func()
		clock, procs int64
	}{
		{"delta alone", func() { weave(delta) }, 0, 0},
		{"host alone", func() { unweave(delta); weave(host) }, 0, 1},
		{"time and procName alone", func() { unweave(host); weave(timed) }, 1, 1},
		{"delta, time and procName", func() { weave(delta) }, 1, 1},
		{"delta, host, time and procName", func() { weave(host) }, 1, 1},
		{"delta again", func() { unweave(host); unweave(timed) }, 0, 0},
		{"delta and the baseline probe", func() { weave(probe) }, 1, 1},
		{"the baseline probe alone", func() { unweave(delta) }, 1, 1},
		{"delta after the probe", func() { unweave(probe); weave(delta) }, 0, 0},
	}
	for _, s := range steps {
		s.do()
		const crossings = 5
		c0, p0 := clock.reads.Load(), lookups.Load()
		for i := 0; i < crossings; i++ {
			tp.Here(ctx, int64(i))
		}
		if got := (clock.reads.Load() - c0) / crossings; got != s.clock || (clock.reads.Load()-c0)%crossings != 0 {
			t.Errorf("%s: %d clock reads in %d crossings, want %d per crossing", s.name, clock.reads.Load()-c0, crossings, s.clock)
		}
		if got := (lookups.Load() - p0) / crossings; got != s.procs || (lookups.Load()-p0)%crossings != 0 {
			t.Errorf("%s: %d process lookups in %d crossings, want %d per crossing", s.name, lookups.Load()-p0, crossings, s.procs)
		}
	}
	if n := delta.Prog.Cost.Invocations.Load(); n == 0 {
		t.Fatal("the delta program never ran")
	}
}

// refKey carries the tuple a crossing for advice that observes everything
// builds, so the advice can check what it was handed.
type refKey struct{}

// checker is advice that observes the positions in mask, or every position
// when mask is nil, and counts the invocations handed a tuple in which an
// observed position differs from the reference or any position holds a
// value the reference does not (a stale value from an earlier crossing).
type checker struct {
	mask  *uint64
	bad   *atomic.Int64
	calls atomic.Int64
}

func (c *checker) Invoke(ctx context.Context, vals tuple.Tuple) {
	c.calls.Add(1)
	ref := ctx.Value(refKey{}).(tuple.Tuple)
	for i := range ref {
		observed := c.mask == nil || *c.mask>>i&1 != 0
		if vals[i] != ref[i] && (observed || vals[i] != (tuple.Value{})) {
			c.bad.Add(1)
			return
		}
	}
}

// observingChecker is a checker that states its reads.
type observingChecker struct{ checker }

func (c *observingChecker) Observed() uint64 { return *c.mask }

// crossing returns the context, the declared export values and the
// reference tuple of one random crossing of tp.
func crossing(rng *rand.Rand, tp *tracepoint.Tracepoint) (context.Context, []any, tuple.Tuple) {
	info := tracepoint.ProcInfo{Host: fmt.Sprint("h", rng.Intn(4)), ProcName: fmt.Sprint("p", rng.Intn(4)), ProcID: rng.Int63n(100)}
	now := time.Duration(rng.Int63n(1 << 40))
	vals := make([]any, rng.Intn(len(tp.Exports)+1))
	for i := range vals {
		if rng.Intn(2) == 0 {
			vals[i] = rng.Int63n(1000)
		} else {
			vals[i] = fmt.Sprint("v", rng.Intn(1000))
		}
	}
	ref := tuple.Tuple{tuple.String(info.Host), tuple.Int(int64(now)), tuple.String(info.ProcName), tuple.Int(info.ProcID), tuple.String(tp.Name)}
	for i := range tp.Exports {
		v := tuple.Value{}
		if i < len(vals) {
			v = tuple.Of(vals[i])
		}
		ref = append(ref, v)
	}
	ctx := tracepoint.WithClock(tracepoint.WithProc(context.Background(), info), &countingClock{now: now})
	return context.WithValue(ctx, refKey{}, ref), vals, ref
}

// randomMask returns a random non-empty set of positions of a width-wide
// tuple.
func randomMask(rng *rand.Rand, width int) *uint64 {
	m := uint64(1) << rng.Intn(width)
	for i := 0; i < width; i++ {
		if rng.Intn(3) == 0 {
			m |= 1 << i
		}
	}
	return &m
}

// TestPropertyCrossingFillsObservedPositions weaves and unweaves advice
// with random observed sets, and one advice that states none, at one
// tracepoint, crossing it between every change with random exports, clock
// and process. Every advice must see each position it observes as the
// reference has it and no stale value anywhere. The failpoint hook, which
// is handed the tuple the advice is, must see exactly the positions some
// woven advice observes filled (host, procName and procId count as one:
// one lookup fills all three) and every other position null.
func TestPropertyCrossingFillsObservedPositions(t *testing.T) {
	randtest.Check(t, 40, 1, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		reg := tracepoint.NewRegistry()
		exports := make([]string, 1+rng.Intn(6))
		for i := range exports {
			exports[i] = fmt.Sprint("x", i)
		}
		tp := reg.Define("tp", exports...)
		width := len(tp.Schema())
		var bad atomic.Int64
		pool := []tracepoint.Advice{&checker{bad: &bad}}
		for i := 0; i < 4; i++ {
			pool = append(pool, &observingChecker{checker{mask: randomMask(rng, width), bad: &bad}})
		}
		woven := make([]bool, len(pool))
		var hooked []string
		var ref tuple.Tuple
		var union uint64
		reg.SetFailpoint(func(_ tracepoint.Advice, vals tuple.Tuple) {
			for i := range ref {
				want := ref[i]
				if union>>i&1 == 0 {
					want = tuple.Value{}
				}
				if vals[i] != want {
					hooked = append(hooked, fmt.Sprintf("position %d = %v, want %v", i, vals[i], want))
				}
			}
		})
		for step := 0; step < 200; step++ {
			i := rng.Intn(len(pool))
			if woven[i] {
				reg.Unweave("tp", pool[i])
			} else if err := reg.Weave("tp", pool[i]); err != nil {
				return err
			}
			woven[i] = !woven[i]
			union = 0
			for j, a := range pool {
				if !woven[j] {
					continue
				}
				if c, ok := a.(*observingChecker); ok {
					union |= *c.mask
				} else {
					union = ^uint64(0)
				}
			}
			if union&(1<<0|1<<2|1<<3) != 0 {
				union |= 1<<0 | 1<<2 | 1<<3
			}
			var ctx context.Context
			var vals []any
			ctx, vals, ref = crossing(rng, tp)
			before := make([]int64, len(pool))
			for j, a := range pool {
				before[j] = calls(a)
			}
			tp.Here(ctx, vals...)
			for j, a := range pool {
				if want := before[j] + b2i(woven[j]); calls(a) != want {
					return fmt.Errorf("step %d: advice %d ran %d times, want %d", step, j, calls(a)-before[j], want-before[j])
				}
			}
			if len(hooked) > 0 {
				return fmt.Errorf("step %d: failpoint saw %v", step, hooked)
			}
		}
		if n := bad.Load(); n > 0 {
			return fmt.Errorf("%d invocations saw an observed position unfilled or a stale value", n)
		}
		return nil
	})
}

func calls(a tracepoint.Advice) int64 {
	if c, ok := a.(*observingChecker); ok {
		return c.calls.Load()
	}
	return a.(*checker).calls.Load()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestConcurrentWeaveNeverRunsAdviceUnfilled weaves and unweaves advice
// with random observed sets while other goroutines cross the tracepoint.
// No advice may run with a position it observes unfilled: the advice list
// and its read mask are published as one pointer, so a crossing never
// pairs a list with the mask of another.
func TestConcurrentWeaveNeverRunsAdviceUnfilled(t *testing.T) {
	reg := tracepoint.NewRegistry()
	tp := reg.Define("tp", "a", "b", "c")
	width := len(tp.Schema())
	var bad atomic.Int64
	rng := rand.New(rand.NewSource(1))
	pool := []tracepoint.Advice{&checker{bad: &bad}}
	for i := 0; i < 6; i++ {
		pool = append(pool, &observingChecker{checker{mask: randomMask(rng, width), bad: &bad}})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var crossed atomic.Int64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, vals, _ := crossing(rng, tp)
				tp.Here(ctx, vals...)
				crossed.Add(1)
			}
		}(int64(g + 2))
	}
	woven := make([]bool, len(pool))
	for step := 0; step < 2000 || crossed.Load() < 20000; step++ {
		i := rng.Intn(len(pool))
		if woven[i] {
			reg.Unweave("tp", pool[i])
		} else if err := reg.Weave("tp", pool[i]); err != nil {
			t.Fatal(err)
		}
		woven[i] = !woven[i]
		if step%16 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	var ran int64
	for _, a := range pool {
		ran += calls(a)
	}
	if ran == 0 {
		t.Fatal("no advice ran")
	}
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d of %d invocations saw an observed position unfilled or a stale value", n, ran)
	}
}
