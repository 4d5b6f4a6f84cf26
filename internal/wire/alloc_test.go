//go:build !race

package wire

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import "testing"

// TestAllocMarshalHeartbeat: every agent and combiner tier marshals one
// heartbeat per flush on a TCP link; the frame is sized up front rather
// than grown through appends.
func TestAllocMarshalHeartbeat(t *testing.T) {
	var hb any = fullHeartbeat() // boxed once, as the bus hands it over
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := Marshal(hb); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Marshal(Heartbeat) allocates %.1f objects/op, want at most 1 (the frame)", n)
	}
}
