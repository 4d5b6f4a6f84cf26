//go:build !race

package agent

// Allocation-regression tests for the woven end-to-end hot path. Excluded
// under -race: the race detector's instrumentation adds bookkeeping
// allocations that would fail these assertions for reasons unrelated to
// the code under test.

import (
	"context"
	"testing"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/tracepoint"
)

// TestAllocWovenEmitPathIsAllocationFree drives the full production path —
// tracepoint fire, advice projection, agent EmitTuple, accumulator fold —
// and requires it to be allocation-free once the group exists.
func TestAllocWovenEmitPathIsAllocationFree(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Stress.Tracepoint", "v")
	a := New(nil, info("h1"), reg, b, 0)
	defer a.Close()
	b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{stressProgram("Q")}})

	ctx := tracepoint.WithProc(context.Background(), info("h1"))
	ctx = baggage.NewContext(ctx, baggage.New())
	tp.Here(ctx, 1) // create the group and warm every pool (cold)
	if n := testing.AllocsPerRun(1000, func() {
		tp.Here(ctx, 1)
	}); n != 0 {
		t.Errorf("steady-state woven Here through agent EmitTuple allocates "+
			"%.1f objects/op, want 0 (regression in the fire-scratch, emit, "+
			"or accumulator path)", n)
	}
}

// TestAllocStatsIsAllocationFree: callers sample Stats inside measured
// windows (bench/ reads it twice per flush point), so the snapshot must
// stay a plain value copy of the live counters.
func TestAllocStatsIsAllocationFree(t *testing.T) {
	a := New(nil, info("h1"), tracepoint.NewRegistry(), bus.New(), 0)
	defer a.Close()
	a.Deliver(Install{QueryID: "Q", Programs: []*advice.Program{stressProgram("Q")}})
	var s Stats
	if n := testing.AllocsPerRun(1000, func() { s = a.Stats() }); n != 0 {
		t.Errorf("Agent.Stats allocates %.1f objects/op, want 0", n)
	}
	if s.SampleRateMilli != 1000 {
		t.Errorf("Stats = %+v, want an idle agent's", s)
	}
}
