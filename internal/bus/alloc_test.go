//go:build !race

package bus

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import "testing"

// TestAllocPublishThreeSubscribers: Publish delivers from the topic's
// subscriber slice as it stands, with no snapshot copy and no sort.
func TestAllocPublishThreeSubscribers(t *testing.T) {
	b := New()
	n := 0
	for i := 0; i < 3; i++ {
		b.Subscribe("t", func(any) { n++ })
	}
	var msg any = "m" // boxed once, as a publisher hands it over
	if allocs := testing.AllocsPerRun(1000, func() { b.Publish("t", msg) }); allocs != 0 {
		t.Errorf("Publish to three subscribers allocates %.1f objects/op, want 0", allocs)
	}
	if n != 3*1001 {
		t.Errorf("%d deliveries, want %d", n, 3*1001)
	}
}
