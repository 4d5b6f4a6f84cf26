package bus

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestPublishReachesSubscribers(t *testing.T) {
	b := New()
	var got []any
	b.Subscribe("t", func(msg any) { got = append(got, msg) })
	b.Publish("t", 1)
	b.Publish("t", 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v", got)
	}
	if b.published != 2 {
		t.Fatalf("published = %d", b.published)
	}
}

func TestTopicsAreIsolated(t *testing.T) {
	b := New()
	var a, c int
	b.Subscribe("a", func(any) { a++ })
	b.Subscribe("c", func(any) { c++ })
	b.Publish("a", nil)
	if a != 1 || c != 0 {
		t.Fatalf("a=%d c=%d", a, c)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := New()
	n := 0
	sub := b.Subscribe("t", func(any) { n++ })
	b.Publish("t", nil)
	b.Unsubscribe(sub)
	b.Unsubscribe(sub) // idempotent
	b.Publish("t", nil)
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
}

func TestDeliveryInSubscriptionOrder(t *testing.T) {
	b := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		b.Subscribe("t", func(any) { order = append(order, i) })
	}
	b.Publish("t", nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPublishToEmptyTopic(t *testing.T) {
	b := New()
	b.Publish("nobody", "msg") // must not panic
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New()
	var mu sync.Mutex
	count := 0
	b.Subscribe("t", func(any) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				b.Publish("t", k)
			}
		}()
	}
	wg.Wait()
	if count != 800 {
		t.Fatalf("count = %d", count)
	}
}

// TestTelemetryReadsTheBusCounts: snapshots taken while publishers run
// read the bus's own counts, including what was published before attach.
func TestTelemetryReadsTheBusCounts(t *testing.T) {
	b := New()
	b.Subscribe("t", func(any) {})
	b.Publish("t", 0)
	tel := telemetry.NewRegistry()
	b.SetTelemetry(tel)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				b.Publish("t", k)
				tel.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := tel.Snapshot()
	if s.Counters["bus.published"] != 401 || s.Counters["bus.published.t"] != 401 || s.Gauges["bus.subscribers"] != 1 {
		t.Fatalf("snapshot = %v %v, want 401 published on t, 1 subscriber", s.Counters, s.Gauges)
	}
}

// TestDeliveryOrderAfterUnsubscribeAndResubscribe: removing a subscriber
// keeps the others in subscription order, and subscribing again puts the
// handler last, as a new subscription.
func TestDeliveryOrderAfterUnsubscribeAndResubscribe(t *testing.T) {
	b := New()
	var order []int
	subs := make([]Subscription, 5)
	for i := range subs {
		i := i
		subs[i] = b.Subscribe("t", func(any) { order = append(order, i) })
	}
	b.Unsubscribe(subs[2])
	b.Subscribe("t", func(any) { order = append(order, 2) })
	b.Unsubscribe(subs[0])
	b.Publish("t", nil)
	if want := []int{1, 3, 4, 2}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSubscriptionChangeDuringDeliveryWaitsForNextPublish: a handler that
// unsubscribes a later subscriber, and subscribes a new one, leaves the
// delivery in progress as it was; the next publish sees the change.
func TestSubscriptionChangeDuringDeliveryWaitsForNextPublish(t *testing.T) {
	b := New()
	var got []string
	var later Subscription
	first := true
	b.Subscribe("t", func(any) {
		got = append(got, "first")
		if first {
			first = false
			b.Unsubscribe(later)
			b.Subscribe("t", func(any) { got = append(got, "new") })
		}
	})
	later = b.Subscribe("t", func(any) { got = append(got, "later") })
	b.Publish("t", nil)
	if want := []string{"first", "later"}; !slices.Equal(got, want) {
		t.Fatalf("first delivery = %v, want %v", got, want)
	}
	got = nil
	b.Publish("t", nil)
	if want := []string{"first", "new"}; !slices.Equal(got, want) {
		t.Fatalf("second delivery = %v, want %v", got, want)
	}
}

// TestSubscribeDuringDeliveryGrowsInPlace: a handler subscribed during a
// delivery, into the spare capacity of the topic's slice, is not called by
// that same publish, only by the next.
func TestSubscribeDuringDeliveryGrowsInPlace(t *testing.T) {
	b := New()
	var got []string
	first := true
	b.Subscribe("t", func(any) {
		got = append(got, "first")
		if first {
			first = false
			b.Subscribe("t", func(any) { got = append(got, "new") })
		}
	})
	for i := 0; i < 2; i++ { // three subscribers in a slice with room for four
		b.Subscribe("t", func(any) { got = append(got, "other") })
	}
	b.Publish("t", nil)
	if want := []string{"first", "other", "other"}; !slices.Equal(got, want) {
		t.Fatalf("first delivery = %v, want %v", got, want)
	}
	got = nil
	b.Publish("t", nil)
	if want := []string{"first", "other", "other", "new"}; !slices.Equal(got, want) {
		t.Fatalf("second delivery = %v, want %v", got, want)
	}
}
