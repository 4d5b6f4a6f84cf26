//go:build !race

package pivot

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/agent"
	"repro/internal/wire"
)

// TestAllocsHBRequest pins the allocation cost of one happened-before
// request — the nine calls of the hb-crossings workload in bench/ and of
// BenchmarkHBRequest — call by call, so that a regression names the call
// that caused it without running bench/. The ceilings are the measured
// counts, and a call that measures a whole object below its ceiling fails
// too: a change that removes an allocation lowers the ceiling with it.
func TestAllocsHBRequest(t *testing.T) {
	pt := New("alloc")
	recv := pt.Define("Gateway.Receive", "tenant")
	write := pt.Define("Store.Write", "bytes")
	if _, err := pt.Install(`From w In Store.Write
Join g In First(Gateway.Receive) On g -> w
GroupBy g.tenant
Select g.tenant, SUM(w.bytes), COUNT`); err != nil {
		t.Fatal(err)
	}
	stCtx := pt.Context(context.Background())
	var tenant, size any = "tenant-1", int64(512)

	var (
		ctx, sctx, l, r, joined context.Context
		wire                    []byte
	)
	calls := []struct {
		name    string
		ceiling float64
		call    func()
	}{
		{"NewRequest", 1, func() { ctx = pt.NewRequest(context.Background()) }},
		// The instance with its list and slot index, and the slot's bytes:
		// its spec and the tenant's encoding, written from the fire's
		// working tuple.
		{"Here(Gateway.Receive): pack", 2, func() { recv.Here(ctx, tenant) }},
		{"Inject", 1, func() { wire = Inject(ctx) }},
		{"Extract", 2, func() { sctx = Extract(stCtx, wire) }},
		// Index: the instance with its list and slot index, whose name,
		// spec and tuple are views of the extracted copy. The branches: one
		// object for both nodes, each holding its new active instance and
		// instance list.
		{"Split: index + branches", 2, func() { l, r = Split(sctx) }},
		// Each unpack decodes the tenant into the fire's pooled arena.
		{"Here(Store.Write) on the left branch: unpack + emit", 0, func() { write.Here(l, size) }},
		{"Here(Store.Write) on the right branch: unpack + emit", 0, func() { write.Here(r, size) }},
		{"Join", 1, func() { joined = Join(sctx, l, r) }},
		{"Here(Store.Write) after the join: unpack + emit", 0, func() { write.Here(joined, size) }},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	got := make([]uint64, len(calls))
	var before, after runtime.MemStats
	for n := 0; n < runs+1; n++ {
		for i, c := range calls {
			runtime.ReadMemStats(&before)
			c.call()
			runtime.ReadMemStats(&after)
			if n > 0 { // the first request warms pools and the group table
				got[i] += after.Mallocs - before.Mallocs
			}
		}
	}
	total, ceiling := 0.0, 0.0
	for i, c := range calls {
		per := float64(got[i]) / runs
		total += per
		ceiling += c.ceiling
		switch { // a GC that empties a sync.Pool mid-run adds hundredths, a change adds or removes whole objects
		case per > c.ceiling+0.5:
			t.Errorf("%s allocates %.2f objects/request, ceiling %.0f", c.name, per, c.ceiling)
		case per < c.ceiling-0.5:
			t.Errorf("%s allocates %.2f objects/request, below its ceiling %.0f: lower the ceiling", c.name, per, c.ceiling)
		}
		t.Logf("%-55s %6.2f", c.name, per)
	}
	t.Logf("%-55s %6.2f (ceiling %.0f)", "request", total, ceiling)
}

// TestAllocsTreePack pins what a request of the tree-fanin workload in
// bench/ pays to pack: one Front.Recv crossing under its hb-first (FIRST)
// and hb-all (ALL) queries opens the request's instance and packs a slot
// for each.
func TestAllocsTreePack(t *testing.T) {
	pt := New("alloc")
	front := pt.Define("Front.Recv", "tenant", "key")
	pt.Define("Back.Exec", "key", "bytes")
	for _, text := range []string{
		`From b In Back.Exec Join f In First(Front.Recv) On f -> b GroupBy f.tenant Select f.tenant, SUM(b.bytes), COUNT`,
		`From b In Back.Exec Join f In Front.Recv On f -> b GroupBy f.tenant Select f.tenant, COUNT`,
	} {
		if _, err := pt.Install(text); err != nil {
			t.Fatal(err)
		}
	}
	var tenant, key any = "tenant-1", "key-00001"

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var got uint64
	var before, after runtime.MemStats
	for n := 0; n <= runs; n++ {
		ctx := pt.NewRequest(context.Background())
		runtime.ReadMemStats(&before)
		front.Here(ctx, tenant, key)
		runtime.ReadMemStats(&after)
		if n > 0 { // the first crossing warms the pools
			got += after.Mallocs - before.Mallocs
		}
	}
	// The instance with its list and its two-slot index, and each slot's
	// bytes.
	per := float64(got) / runs
	t.Logf("Front.Recv pack: %.2f objects/request", per)
	if per > 3.5 {
		t.Errorf("a Front.Recv crossing packing two slots allocates %.2f objects/request, want 3", per)
	}
}

// TestAllocsWideRound pins what a reported row costs across the whole
// reporting path — the round of the wide-groups workload in bench/ and of
// BenchmarkWideReport: one crossing per key in a worker, Flush, the report
// frame through the wire codec, the frontend's merge, Rows(). A row is no
// object of its own. Groups, states, values and the bytes of keys and Rep
// strings come out of slabs where a merger creates a row; the frame is
// decoded, as a link decodes it, by one wire.Decoder that cuts its groups,
// states and values from the memory of the last frame, and its keys and
// Rep strings borrow the frame; a merge into a row the frontend holds
// allocates nothing; and Rows() is two objects however many rows it
// returns. Frames, tables and chunks add hundredths per row.
func TestAllocsWideRound(t *testing.T) {
	const rows = 8192
	worker, front := New("worker"), New("frontend")
	tp := worker.Define("Svc.Handle", "key", "v")
	front.Define("Svc.Handle", "key", "v")
	front.Bus.Subscribe(agent.ControlTopic, func(msg any) { worker.Bus.Publish(agent.ControlTopic, msg) })
	var dec wire.Decoder // kept across rounds, as a link keeps its own
	worker.Bus.Subscribe(agent.ResultsTopic, func(msg any) {
		frame, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		front.Bus.Publish(agent.ResultsTopic, decoded)
	})
	q, err := front.Install(`From e In Svc.Handle GroupBy e.key Select e.key, COUNT, SUM(e.v)`)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]any, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	var one any = int64(1)
	ctx := worker.NewRequest(context.Background())

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 5
	var before, after runtime.MemStats
	for n := 0; n <= rounds; n++ {
		if n == 1 { // the first round sizes the worker's table and fills the frontend's
			runtime.ReadMemStats(&before)
		}
		for _, k := range keys {
			tp.Here(ctx, k, one)
		}
		worker.Flush()
		if got := len(q.Rows()); got != rows {
			t.Fatalf("round %d: %d rows visible, want %d", n, got, rows)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / (rounds * rows)
	t.Logf("%.3f objects per reported row", per)
	if per > 0.1 {
		t.Errorf("a reported row costs %.3f objects from crossing to Rows(), want at most 0.1", per)
	}
}
