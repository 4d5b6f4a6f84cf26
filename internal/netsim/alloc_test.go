//go:build !race

package netsim

// Allocation pins for the flow engine. Excluded under -race: the race
// detector's instrumentation adds bookkeeping allocations unrelated to the
// code under test.

import (
	"testing"

	"repro/internal/simtime"
)

// TestAllocReshareSteadyState: water-filling over a network whose scratch
// slices have seen this many flows and links allocates nothing, and still
// computes the max-min shares.
func TestAllocReshareSteadyState(t *testing.T) {
	n := New(simtime.NewEnv())
	shared := n.AddLink("shared", 100)
	narrow := n.AddLink("narrow", 10)
	wide := n.AddLink("wide", 1000)
	elsewhere := n.AddLink("elsewhere", 1000)
	add := func(links ...*Link) *flow {
		f := &flow{remaining: 1e9}
		f.links = append(f.path[:0], links...)
		n.flows = append(n.flows, f)
		return f
	}
	// narrow caps its flow at 10; the other three split what is left of
	// shared, 30 each.
	capped := add(shared, narrow)
	rest := []*flow{add(shared, wide), add(shared, wide), add(shared)}
	for i := 0; i < 60; i++ {
		add(elsewhere) // bystanders: most flows cross no contended link
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.reshareLocked() // warm the scratch
	if avg := testing.AllocsPerRun(100, n.reshareLocked); avg != 0 {
		t.Errorf("reshare over a warmed network allocates %.2f objects, want 0", avg)
	}
	if capped.rate != 10 {
		t.Errorf("flow through the narrow link runs at %v, want 10", capped.rate)
	}
	for _, f := range rest {
		if !almostEqual(f.rate, 30, 1e-9) {
			t.Errorf("flow sharing the rest of the link runs at %v, want 30", f.rate)
		}
	}
}
