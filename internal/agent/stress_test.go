package agent

// Concurrency-stress tests for the agent hot path: many goroutines firing
// tracepoints across several queries while installs, uninstalls, and
// flushes race. Counts are asserted exactly — draining and batching must
// never lose or duplicate a tuple, nor count one in the wrong flush. Run
// via `make stress` (and CI) with -race -count=2.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// stressProgram is a q1-style program with its own identity and Cost
// counters (programs are stateful; each query needs a private instance).
func stressProgram(queryID string) *advice.Program {
	return &advice.Program{
		QueryID:       queryID,
		Tracepoint:    "Tp",
		Observe:       []int{0, 5},
		ObserveFields: tuple.Schema{"e.host", "e.v"},
		Emit: &advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: 1, Fn: agg.Sum}},
			GroupBy: []int{0},
			Schema:  tuple.Schema{"host", "SUM(v)"},
		},
	}
}

func TestStressEmitInstallUninstallFlushRace(t *testing.T) {
	const (
		firers   = 8
		firesPer = 1500
		standing = 4
		churns   = 200
	)
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	a := New(nil, info("h1"), reg, b, 0)
	defer a.Close()

	// Standing queries are installed before any fire and never removed, so
	// every one of the firers*firesPer crossings must emit exactly one
	// tuple into each. Each is owned by a tenant named after it, so the
	// agent's tenant usage frames carry the tuples it counted per flush.
	progs := make(map[string]*advice.Program, standing)
	var reportMu sync.Mutex
	sums := map[string]int64{}
	counted := map[string]int64{}
	b.Subscribe(ResultsTopic, func(msg any) {
		reportMu.Lock()
		defer reportMu.Unlock()
		for _, r := range resultReports(msg) {
			for _, g := range r.Groups {
				sums[r.QueryID] += g.States[0].Result().Int()
			}
		}
	})
	// A flush publishes its reports, then its cumulative tenant usage: at
	// every usage frame, the tuples counted so far must equal the SUM the
	// reports carried so far, or some flush counted a tuple its report did
	// not carry.
	b.Subscribe(HealthTopic, func(msg any) {
		u, ok := msg.(TenantUsage)
		if !ok {
			return
		}
		reportMu.Lock()
		defer reportMu.Unlock()
		for _, q := range u.Usage {
			counted[q.Tenant] = q.Tuples
			if q.Tuples != sums[q.Tenant] {
				t.Errorf("query %s: flushes counted %d tuples, their reports carried SUM = %d",
					q.Tenant, q.Tuples, sums[q.Tenant])
			}
		}
	})
	for i := 0; i < standing; i++ {
		id := string(rune('A' + i))
		p := stressProgram(id)
		progs[id] = p
		b.Publish(ControlTopic, Install{QueryID: id, Programs: []*advice.Program{p}, Tenant: id})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Firing goroutines: the hot path under test.
	for w := 0; w < firers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := request("h1")
			for i := 0; i < firesPer; i++ {
				tp.Here(ctx, 1)
			}
		}()
	}
	// Churner: victim queries install/uninstall concurrently with fires.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < churns; i++ {
			b.Publish(ControlTopic, Install{QueryID: "victim", Programs: []*advice.Program{stressProgram("victim")}})
			b.Publish(ControlTopic, Uninstall{QueryID: "victim"})
		}
	}()
	// Flusher: drains mid-stream, racing the adds.
	flushDone := make(chan struct{})
	go func() {
		defer close(flushDone)
		for {
			select {
			case <-stop:
				return
			default:
				a.Flush()
			}
		}
	}()

	wg.Wait()
	<-churnDone
	close(stop)
	<-flushDone
	a.Flush() // final drain: everything still buffered must ship

	const want = int64(firers * firesPer)
	reportMu.Lock()
	defer reportMu.Unlock()
	for id, p := range progs {
		if got := p.Cost.TuplesEmitted.Load(); got != want {
			t.Errorf("query %s emitted %d tuples, want %d", id, got, want)
		}
		if sums[id] != want {
			t.Errorf("query %s reported SUM = %d, want %d (tuples lost or duplicated)",
				id, sums[id], want)
		}
		if counted[id] != want {
			t.Errorf("query %s: tenant usage counted %d tuples, want %d", id, counted[id], want)
		}
	}
}

func TestStressFlushSlowBusLinkDoesNotStallHere(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	a := New(nil, info("h1"), reg, b, 0)
	defer a.Close()

	entered := make(chan struct{})
	gate := make(chan struct{})
	b.Subscribe(ResultsTopic, func(msg any) {
		// Simulate a slow bus link: the first publish blocks until the
		// test has proven that concurrent fires still complete.
		close(entered)
		<-gate
	})
	b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{stressProgram("Q")}})

	tp.Here(request("h1"), 1)
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		a.Flush()
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("flush never reached the bus")
	}

	// The flush is wedged inside the bus publish. Fires must still land:
	// the agent encodes a drained snapshot outside its locks, and EmitTuple
	// takes only the accumulator's, which a drain holds only to hand over
	// its merger.
	const fires = 500
	fired := make(chan struct{})
	go func() {
		defer close(fired)
		ctx := request("h1")
		for i := 0; i < fires; i++ {
			tp.Here(ctx, 1)
		}
	}()
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("Here fires stalled behind a slow bus link during Flush")
	}
	close(gate)
	<-flushed
	if got := a.Stats().TuplesEmitted; got != fires+1 {
		t.Errorf("TuplesEmitted = %d, want %d", got, fires+1)
	}
}
