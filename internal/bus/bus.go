// Package bus provides the pub/sub message bus connecting Pivot Tracing
// agents to the query frontend (§5 of the paper: agents await instruction
// via a central pub/sub server and publish partial query results).
//
// The bus is in-process and synchronous: Publish invokes every subscriber
// before returning, which keeps simulated experiments deterministic. The
// asynchrony of a real deployment lives in the simulated network of the
// cluster layer, not here.
package bus

import (
	"slices"
	"sync"

	"repro/internal/telemetry"
)

// Handler consumes messages published to a topic.
type Handler func(msg any)

// Subscription identifies an active subscription for cancellation.
type Subscription struct {
	topic string
	id    int
}

// subscriber is one subscription's handler.
type subscriber struct {
	id int
	h  Handler
}

// Bus is a topic-based publish/subscribe hub.
type Bus struct {
	mu     sync.Mutex
	nextID int
	// topics holds each topic's subscribers in subscription order.
	// Subscribe appends in place, past the length of every slice a
	// Publish may have read; Unsubscribe replaces the slice and never
	// writes one in place. So Publish delivers from the slice it read
	// under the lock without copying it, and reads no element written
	// after that.
	topics map[string][]subscriber

	published int64            // messages published, all topics
	perTopic  map[string]int64 // messages published, per topic
}

// SetTelemetry attaches self-telemetry to the bus: every snapshot of t
// carries the bus's own "bus.published" and per-topic
// "bus.published.<topic>" counts, and a "bus.subscribers" gauge.
func (b *Bus) SetTelemetry(t *telemetry.Registry) {
	t.Source(func(s *telemetry.Snapshot) {
		b.mu.Lock()
		defer b.mu.Unlock()
		s.Counters["bus.published"] = b.published
		for topic, n := range b.perTopic {
			s.Counters["bus.published."+topic] = n
		}
		n := 0
		for _, subs := range b.topics {
			n += len(subs)
		}
		s.Gauges["bus.subscribers"] = int64(n)
	})
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{topics: make(map[string][]subscriber), perTopic: make(map[string]int64)}
}

// Subscribe registers a handler for a topic and returns its subscription.
func (b *Bus) Subscribe(topic string, h Handler) Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.topics[topic] = append(b.topics[topic], subscriber{b.nextID, h})
	return Subscription{topic: topic, id: b.nextID}
}

// Unsubscribe cancels a subscription; it is safe to call twice.
func (b *Bus) Unsubscribe(s Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[s.topic]
	i := slices.IndexFunc(subs, func(sub subscriber) bool { return sub.id == s.id })
	if i < 0 {
		return
	}
	if len(subs) == 1 {
		delete(b.topics, s.topic)
	} else {
		b.topics[s.topic] = slices.Concat(subs[:i], subs[i+1:])
	}
}

// Publish delivers msg to every subscriber of the topic, synchronously, in
// subscription order. The subscribers are those of the moment Publish
// starts: a handler that subscribes or unsubscribes during delivery
// changes the next publish, not this one.
func (b *Bus) Publish(topic string, msg any) {
	b.mu.Lock()
	b.published++
	b.perTopic[topic]++
	subs := b.topics[topic]
	b.mu.Unlock()
	for _, s := range subs {
		s.h(msg)
	}
}
