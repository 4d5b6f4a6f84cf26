package pivot

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/wire"
)

// TestReportImmutableOncePublished: a report is shared by reference from
// the moment it is published — in-process subscribers, the outage ring and
// benchmarks hold it while the agent that built it goes on accumulating —
// so nothing the agent, a frontend or a combiner does afterwards may
// change what it encodes to. The worker keeps crossing (on its own
// goroutine, so that the race detector sees any write into rows the test
// is encoding) through three more flushes, a frontend and a combiner merge
// the captured batch again and the combiner flushes it onward; the batch
// and the copy parked in the agent's outage ring must still marshal to the
// bytes they marshaled to when captured. Recycling a drained accumulator's
// groups for the next interval — resetting state, keeping structure —
// fails here.
func TestReportImmutableOncePublished(t *testing.T) {
	pt := New("worker")
	tp := pt.Define("Svc.Handle", "key", "v")
	for _, text := range []string{
		`From e In Svc.Handle GroupBy e.key Select e.key, COUNT, SUM(e.v), MAX(e.v)`,
		`From e In Svc.Handle Select e.key, e.v`,
	} {
		if _, err := pt.Install(text); err != nil {
			t.Fatal(err)
		}
	}
	var batches []agent.ReportBatch
	capture := pt.Bus.Subscribe(agent.ResultsTopic, func(msg any) { batches = append(batches, msg.(agent.ReportBatch)) })
	ctx := pt.NewRequest(context.Background())
	cross := func(from, to int) {
		for i := from; i < to; i++ {
			tp.Here(ctx, fmt.Sprintf("key-%03d", i), int64(i))
		}
	}
	marshal := func(msg any) []byte {
		frame, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	cross(0, 200)
	pt.Flush()
	pt.Bus.Unsubscribe(capture)
	if len(batches) != 1 || len(batches[0].Reports) != 2 {
		t.Fatalf("captured %d batches, want one with both queries' reports: %+v", len(batches), batches)
	}
	batch := batches[0]
	frame := marshal(batch)
	var parked [][]byte
	for _, r := range batch.Reports {
		parked = append(parked, marshal(r))
		pt.Agent.Retain(r)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the same keys, so a recycled group would be written, and new ones
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cross(100, 300)
			}
		}
	}()
	for round := 0; round < 3; round++ {
		cross(0, 200)
		pt.Flush()
		if got := marshal(batch); !bytes.Equal(got, frame) {
			t.Fatalf("flush %d after publication changed the captured batch's encoding", round+1)
		}
	}
	close(stop)
	wg.Wait()

	pt.Bus.Publish(agent.ResultsTopic, batch) // the frontend merges it a second time
	local := bus.New()
	comb := combiner.New(nil, "ctier", "test", local, combiner.Config{Subscribe: []string{"part"}, Upstream: "up"})
	defer comb.Close()
	forwarded := 0
	local.Subscribe("up", func(any) { forwarded++ })
	local.Publish("part", batch)
	local.Publish("part", batch)
	comb.Flush()
	if forwarded == 0 {
		t.Fatal("the combiner forwarded nothing")
	}
	if got := marshal(batch); !bytes.Equal(got, frame) {
		t.Error("merging the captured batch at a frontend and a combiner changed its encoding")
	}

	replayed := pt.Agent.ReplayRetained(func(r agent.Report) error {
		if got := marshal(r); !bytes.Equal(got, parked[0]) {
			t.Errorf("report of %s parked in the outage ring changed its encoding before replay", r.QueryID)
		}
		parked = parked[1:]
		return nil
	})
	if replayed != 2 {
		t.Errorf("replayed %d parked reports, want 2", replayed)
	}
}
