package tracepoint

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/tuple"
)

// recorder is test advice capturing invocations.
type recorder struct {
	mu    sync.Mutex
	calls []tuple.Tuple
}

func (r *recorder) Invoke(_ context.Context, vals tuple.Tuple) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, vals.Clone())
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.calls)
}

func TestDefineAndLookup(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("DataNodeMetrics.incrBytesRead", "delta")
	if reg.Lookup("DataNodeMetrics.incrBytesRead") != tp {
		t.Fatal("Lookup should return the defined tracepoint")
	}
	if reg.Lookup("missing") != nil {
		t.Fatal("Lookup of undefined tracepoint should be nil")
	}
	want := tuple.Schema{"host", "time", "procName", "procId", "tracepoint", "delta"}
	if !tp.Schema().Equal(want) {
		t.Fatalf("Schema = %v, want %v", tp.Schema(), want)
	}
}

func TestDefineIdempotentAndConflictPanics(t *testing.T) {
	reg := NewRegistry()
	a := reg.Define("tp", "x")
	if b := reg.Define("tp", "x"); b != a {
		t.Fatal("re-define with same exports should return existing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-define should panic")
		}
	}()
	reg.Define("tp", "y")
}

func TestHereIsNoOpWithoutAdvice(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	tp.Here(context.Background(), 42)
	if tp.Enabled() {
		t.Fatal("tracepoint with no advice should be disabled")
	}
}

func TestWeaveInvokeUnweave(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	rec := &recorder{}
	if err := reg.Weave("tp", rec); err != nil {
		t.Fatal(err)
	}
	if !tp.Enabled() {
		t.Fatal("woven tracepoint should be enabled")
	}
	tp.Here(context.Background(), 42)
	if rec.count() != 1 {
		t.Fatalf("advice invoked %d times, want 1", rec.count())
	}
	reg.Unweave("tp", rec)
	tp.Here(context.Background(), 43)
	if rec.count() != 1 {
		t.Fatal("unwoven advice still invoked")
	}
	if tp.Enabled() {
		t.Fatal("tracepoint should be disabled after unweave")
	}
}

func TestWeaveUndefinedErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Weave("missing", &recorder{}); err == nil {
		t.Fatal("weaving into undefined tracepoint should error")
	}
}

func TestMultipleAdviceAllInvoked(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	r1, r2 := &recorder{}, &recorder{}
	reg.Weave("tp", r1)
	reg.Weave("tp", r2)
	tp.Here(context.Background(), 1)
	if r1.count() != 1 || r2.count() != 1 {
		t.Fatalf("advice counts = %d, %d; want 1, 1", r1.count(), r2.count())
	}
}

func TestExportedTupleContents(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("DN.DataTransferProtocol", "op", "size")
	rec := &recorder{}
	reg.Weave("DN.DataTransferProtocol", rec)

	ctx := WithProc(context.Background(), ProcInfo{
		Host: "host-a", ProcName: "DataNode", ProcID: 77,
	})
	ctx = WithClock(ctx, fixedClock(5*time.Second))
	tp.Here(ctx, "READ_BLOCK", 8192)

	got := rec.calls[0]
	if got[0].Str() != "host-a" {
		t.Errorf("host = %v", got[0])
	}
	if got[1].Int() != int64(5*time.Second) {
		t.Errorf("time = %v", got[1])
	}
	if got[2].Str() != "DataNode" || got[3].Int() != 77 {
		t.Errorf("proc = %v/%v", got[2], got[3])
	}
	if got[4].Str() != "DN.DataTransferProtocol" {
		t.Errorf("tracepoint = %v", got[4])
	}
	if got[5].Str() != "READ_BLOCK" || got[6].Int() != 8192 {
		t.Errorf("exports = %v, %v", got[5], got[6])
	}
}

func TestMissingTrailingExportsAreNull(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("tp", "a", "b")
	rec := &recorder{}
	reg.Weave("tp", rec)
	tp.Here(context.Background(), 1)
	got := rec.calls[0]
	if got[6].Kind() != tuple.KindNull {
		t.Fatalf("missing export = %v, want null", got[6])
	}
}

func TestNamesSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Define("zz")
	reg.Define("aa")
	names := reg.Names()
	if len(names) != 2 || names[0] != "aa" || names[1] != "zz" {
		t.Fatalf("Names = %v", names)
	}
}

func TestConcurrentWeaveAndInvoke(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tp.Here(context.Background(), 1)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		rec := &recorder{}
		reg.Weave("tp", rec)
		reg.Unweave("tp", rec)
	}
	close(stop)
	wg.Wait()
}

type fixedClock time.Duration

func (c fixedClock) Now() time.Duration { return time.Duration(c) }

func TestNowFallsBackToWallClock(t *testing.T) {
	before := time.Now().UnixNano()
	got := int64(Now(context.Background()))
	after := time.Now().UnixNano()
	if got < before || got > after {
		t.Fatalf("Now() = %d outside [%d, %d]", got, before, after)
	}
}

func TestProcFromContextZeroDefault(t *testing.T) {
	info := ProcFromContext(context.Background())
	if info.Host != "" || info.ProcName != "" || info.ProcID != 0 {
		t.Fatalf("zero ProcInfo expected, got %+v", info)
	}
}

func BenchmarkTracepointDisabled(b *testing.B) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Here(ctx, i)
	}
}

func BenchmarkTracepointWovenNoopAdvice(b *testing.B) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	reg.Weave("tp", noopAdvice{})
	ctx := WithProc(context.Background(), ProcInfo{Host: "h", ProcName: "p"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp.Here(ctx, i)
	}
}

type noopAdvice struct{}

func (noopAdvice) Invoke(context.Context, tuple.Tuple) {}

// panicker is test advice that always panics; it optionally records the
// PanicSink callbacks the Here boundary delivers.
type panicker struct {
	mu       sync.Mutex
	sank     []any
	sankFrom []string
}

func (p *panicker) Invoke(context.Context, tuple.Tuple) { panic("advice bug") }

func (p *panicker) AdvicePanicked(tpName string, recovered any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sank = append(p.sank, recovered)
	p.sankFrom = append(p.sankFrom, tpName)
}

// A panicking advice must never unwind into the traced application: the
// Here boundary recovers, counts, and reports to the advice's PanicSink,
// and other advice at the same tracepoint still runs.
func TestAdvicePanicIsRecoveredAtHereBoundary(t *testing.T) {
	reg := NewRegistry()
	tp := reg.Define("tp", "v")
	bad := &panicker{}
	good := &recorder{}
	if err := reg.Weave("tp", bad); err != nil {
		t.Fatal(err)
	}
	if err := reg.Weave("tp", good); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the tracepoint boundary: %v", r)
		}
	}()
	tp.Here(context.Background(), 1)
	tp.Here(context.Background(), 2)
	if good.count() != 2 {
		t.Fatalf("well-behaved advice invoked %d times, want 2", good.count())
	}
	if tp.Panics() != 2 {
		t.Fatalf("Panics = %d, want 2", tp.Panics())
	}
	bad.mu.Lock()
	defer bad.mu.Unlock()
	if len(bad.sank) != 2 || bad.sank[0] != "advice bug" || bad.sankFrom[0] != "tp" {
		t.Fatalf("PanicSink got %v from %v", bad.sank, bad.sankFrom)
	}
}
