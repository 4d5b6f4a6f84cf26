//go:build !race

package bus

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"runtime"
	"testing"
)

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

// TestAllocSubscribeIsLinear: a topic's subscribers grow in place, so the
// 1024 agents of a simulated cluster subscribing to one control topic cost
// the slice that holds them, not one copy of it per subscription.
func TestAllocSubscribeIsLinear(t *testing.T) {
	b := New()
	h := func(any) {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1024; i++ {
		b.Subscribe("t", h)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("1024 subscriptions to one topic allocate %d bytes, want at most %d", n, 64<<10)
	}
}

// TestAllocServerRelay: the server reads each frame into a buffer from
// its connection's free list, finds the topic's name in its topic table,
// lists the frame's destinations in scratch of its own, and swaps its
// outbound queue with the batch it writes. So at steady state a 64 KiB
// frame relayed from one connection to another allocates nothing.
func TestAllocServerRelay(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, pub := dialRaw(t, srv, "tp"), dialRaw(t, srv)
	serverConnOf(t, srv, sub)
	serverConnOf(t, srv, pub)
	payload := make([]byte, 64<<10)
	relay := func() {
		if err := pub.send("tp", payload); err != nil {
			t.Fatal(err)
		}
		if _, got, err := sub.recv(); err != nil || len(got) != len(payload) {
			t.Fatalf("received %d bytes (%v), want %d", len(got), err, len(payload))
		}
	}
	for i := 0; i < 16; i++ {
		relay() // sizes the buffers, the queue and the scratch
	}
	if n := testing.AllocsPerRun(200, relay); n != 0 {
		t.Errorf("relaying a 64 KiB frame allocates %.1f objects, want 0", n)
	}
}
