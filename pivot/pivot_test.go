package pivot

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/baggage"
)

func TestQuickstartFlow(t *testing.T) {
	pt := New("test-service")
	requests := pt.Define("Server.HandleRequest", "size")

	q, err := pt.Install(`From r In Server.HandleRequest
		GroupBy r.procName
		Select r.procName, COUNT, SUM(r.size)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ctx := pt.NewRequest(context.Background())
		requests.Here(ctx, 100*(i+1))
	}
	pt.Flush()
	rows := q.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Str() != "test-service" || rows[0][1].Int() != 5 || rows[0][2].Int() != 1500 {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestCrossServiceJoinViaInjectExtract(t *testing.T) {
	// Two logical services in one test: frontend packs its name, backend
	// observes bytes; baggage crosses the "wire" via Inject/Extract.
	pt := New("node")
	fe := pt.Define("Frontend.Receive")
	be := pt.Define("Backend.Read", "bytes")

	q, err := pt.Install(`From b In Backend.Read
		Join f In First(Frontend.Receive) On f -> b
		GroupBy f.procName
		Select f.procName, SUM(b.bytes)`)
	if err != nil {
		t.Fatal(err)
	}

	ctx := WithProcess(pt.NewRequest(context.Background()), "fe-host", "frontend")
	fe.Here(ctx)
	wire := Inject(ctx)
	if len(wire) == 0 {
		t.Fatal("baggage should be non-empty after pack")
	}
	backendCtx := Extract(WithProcess(context.Background(), "be-host", "backend"), wire)
	be.Here(backendCtx, 4096)

	pt.Flush()
	rows := q.Rows()
	if len(rows) != 1 || rows[0][0].Str() != "frontend" || rows[0][1].Int() != 4096 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSplitJoinBranches(t *testing.T) {
	pt := New("svc")
	evt := pt.Define("Work.Item", "n")
	end := pt.Define("Work.Done")

	q, err := pt.Install(`From e In Work.Done
		Join w In Work.Item On w -> e
		GroupBy e.procName
		Select e.procName, COUNT`)
	if err != nil {
		t.Fatal(err)
	}

	ctx := pt.NewRequest(context.Background())
	l, r := Split(ctx)
	evt.Here(l, 1)
	evt.Here(r, 2)
	ctx = Join(ctx, l, r)
	end.Here(ctx)

	pt.Flush()
	rows := q.Rows()
	if len(rows) != 1 || rows[0][1].Int() != 2 {
		t.Fatalf("rows = %v, want both branch items counted", rows)
	}
}

// TestSplitBranchesPackConcurrently: each of Split's contexts holds its
// branch's baggage by value, so two goroutines packing through them write
// nothing in common (run under -race), and Join counts every pack once. A
// degenerate Join — one side carrying no baggage — copies the other side;
// packing through the result must leave that side as it was.
func TestSplitBranchesPackConcurrently(t *testing.T) {
	pt := New("svc")
	evt := pt.Define("Work.Item", "n")
	end := pt.Define("Work.Done")
	q, err := pt.Install(`From e In Work.Done
		Join w In Work.Item On w -> e
		GroupBy e.procName
		Select e.procName, COUNT`)
	if err != nil {
		t.Fatal(err)
	}

	const packs = 200
	ctx := pt.NewRequest(context.Background())
	l, r := Split(ctx)
	var wg sync.WaitGroup
	for _, branch := range []context.Context{l, r} {
		wg.Add(1)
		go func(branch context.Context) {
			defer wg.Done()
			for i := 0; i < packs; i++ {
				evt.Here(branch, i)
			}
		}(branch)
	}
	wg.Wait()
	end.Here(Join(ctx, l, r))
	pt.Flush()
	if rows := q.Rows(); len(rows) != 1 || rows[0][1].Int() != 2*packs {
		t.Fatalf("rows = %v, want every pack of both branches counted once", rows)
	}

	dead, slot := baggage.FromContext(l), q.Name+".w"
	wire, rows := Inject(l), len(dead.Unpack(slot))
	solo := Join(ctx, l, pt.Context(context.Background()))
	evt.Here(solo, -1)
	if !bytes.Equal(Inject(l), wire) || len(dead.Unpack(slot)) != rows || rows == 0 {
		t.Error("a pack through a degenerate Join's result changed the branch it copied")
	}
	if got := len(baggage.FromContext(solo).Unpack(slot)); got != rows+1 {
		t.Errorf("the degenerate Join's result unpacks %d rows after its pack, want %d", got, rows+1)
	}
}

func TestNamedQueryJoin(t *testing.T) {
	pt := New("svc")
	pt.Define("Recv")
	pt.Define("Send")
	pt.Define("Done", "id")

	if _, err := pt.InstallNamed("LAT", `From s In Send
		Join r In MostRecent(Recv) On r -> s
		Select s.time - r.time`); err != nil {
		t.Fatal(err)
	}
	q, err := pt.Install(`From d In Done
		Join m In LAT On m -> end
		GroupBy d.id
		Select d.id, AVERAGE(m)`)
	if err != nil {
		t.Fatal(err)
	}
	_ = q
	if !strings.Contains(q.Explain(), "UNPACK") {
		t.Errorf("Explain = %q", q.Explain())
	}
}

func TestStartReportingTicker(t *testing.T) {
	pt := New("svc")
	tp := pt.Define("Evt")
	q, err := pt.Install(`From e In Evt GroupBy e.procName Select e.procName, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	stop := pt.StartReporting(10 * time.Millisecond)
	defer stop()
	tp.Here(pt.NewRequest(context.Background()))
	deadline := time.After(2 * time.Second)
	for {
		if rows := q.Rows(); len(rows) == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no report within 2s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	stop() // idempotent
}

func TestUninstallFromFacade(t *testing.T) {
	pt := New("svc")
	tp := pt.Define("Evt")
	q, err := pt.Install(`From e In Evt GroupBy e.procName Select e.procName, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	q.Uninstall()
	tp.Here(pt.NewRequest(context.Background()))
	pt.Flush()
	if rows := q.Rows(); len(rows) != 0 {
		t.Fatalf("rows after uninstall = %v", rows)
	}
	if tp.Enabled() {
		t.Error("tracepoint still enabled after uninstall")
	}
}

func TestInjectEmptyBaggageIsZeroBytes(t *testing.T) {
	ctx := New("p").NewRequest(context.Background())
	if wire := Inject(ctx); len(wire) != 0 {
		t.Fatalf("empty baggage = %d bytes, want 0", len(wire))
	}
	// Extract of nil wire still yields a usable context.
	ctx2 := Extract(context.Background(), nil)
	if ctx2 == nil {
		t.Fatal("Extract(nil) returned nil context")
	}
}
