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
		parked = append(parked, marshal(agent.ReportBatch{Reports: []agent.Report{r}}))
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
		if got := marshal(agent.ReportBatch{Reports: []agent.Report{r}}); !bytes.Equal(got, parked[0]) {
			t.Errorf("report of %s parked in the outage ring changed its encoding before replay", r.QueryID)
		}
		parked = parked[1:]
		return nil
	})
	if replayed != 2 {
		t.Errorf("replayed %d parked reports, want 2", replayed)
	}
}

// TestAdviceNeverWritesUnpackedTuples: advice reads an Unpack's tuples —
// the baggage's stored ones, whose strings borrow the bytes the baggage was
// extracted from — and copies them into its fire's arena, where the Where
// filter and the computed column work. A request's baggage therefore
// serializes to the same bytes before and after a happened-before query
// fires on it, on each branch of a split and after the join.
func TestAdviceNeverWritesUnpackedTuples(t *testing.T) {
	pt := New("svc")
	recv := pt.Define("Gateway.Receive", "tenant", "weight")
	write := pt.Define("Store.Write", "bytes")
	q, err := pt.Install(`From w In Store.Write
Join g In Gateway.Receive On g -> w
Where w.bytes > 20 * g.weight
Select g.tenant, w.bytes * g.weight`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := pt.NewRequest(context.Background())
	recv.Here(ctx, "tenant-1", int64(2))
	recv.Here(ctx, "tenant-2", int64(1))
	recv.Here(ctx, "tenant-3", int64(3))
	sctx := Extract(pt.Context(context.Background()), Inject(ctx))
	l, r := Split(sctx)
	for name, c := range map[string]context.Context{"left": l, "right": r} {
		before := Inject(c)
		write.Here(c, int64(10))
		write.Here(c, int64(100))
		if after := Inject(c); !bytes.Equal(after, before) {
			t.Errorf("%s branch: baggage serializes to\n%x\nafter the fires, want\n%x", name, after, before)
		}
	}
	joined := Join(sctx, l, r)
	before := Inject(joined)
	write.Here(joined, int64(1000))
	if after := Inject(joined); !bytes.Equal(after, before) {
		t.Errorf("joined: baggage serializes to\n%x\nafter the fire, want\n%x", after, before)
	}

	pt.Flush()
	got := map[string]int64{}
	for _, row := range q.Rows() {
		got[row[0].Str()] += row[1].Int()
	}
	// The 10-byte writes fail the Where; the others are weighted.
	if len(got) != 3 || got["tenant-1"] != 2*1200 || got["tenant-2"] != 1200 || got["tenant-3"] != 3*1200 {
		t.Errorf("rows sum to %v, want tenant-1 %d, tenant-2 %d and tenant-3 %d", got, 2*1200, 1200, 3*1200)
	}
}
