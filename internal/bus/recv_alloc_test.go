//go:build !race

package bus_test

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test. An external
// test package, so that the link decodes with the real wire codec.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// TestAllocLinkRecv: a link reads every frame of a connection into one
// buffer and decodes it with one decoder, and reuses both once the bus has
// delivered the message. So after the first frame has sized them, a
// steady stream of 8192-row report frames allocates only the boxed
// message per frame. (A MIN or MAX over strings would add its strings: a
// merger keeps a state's value by reference, so the decoder copies it.)
// The peer is the far end of a pipe that writes the same frame again and
// again.
func TestAllocLinkRecv(t *testing.T) {
	const rows = 8192
	rep := agent.Report{QueryID: "Q1", Host: "host-1", ProcName: "proc", Time: time.Second}
	for i := 0; i < rows; i++ {
		sum, count := agg.New(agg.Sum), agg.New(agg.Count)
		sum.Add(tuple.Int(int64(i)))
		count.Add(tuple.Null)
		key := fmt.Sprintf("key-%05d", i)
		rep.Groups = append(rep.Groups, &advice.Group{
			Key: key, Rep: tuple.Tuple{tuple.String(key), tuple.Null}, States: []agg.State{*sum, *count},
		})
	}
	payload, err := wire.Marshal(agent.ReportBatch{Reports: []agent.Report{rep}})
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.AppendUvarint(nil, uint64(len(agent.ResultsTopic)))
	frame = append(frame, agent.ResultsTopic...)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)

	peer, drained := make(chan net.Conn, 1), make(chan struct{})
	dial := func(string) (net.Conn, error) {
		near, far := net.Pipe()
		go func() { // reads the link's subscription announcement, until Close
			defer close(drained)
			io.Copy(io.Discard, far)
		}()
		peer <- far
		return near, nil
	}
	b := bus.New()
	delivered := make(chan int, 1)
	b.Subscribe(agent.ResultsTopic, func(msg any) { delivered <- len(msg.(agent.ReportBatch).Reports[0].Groups) })
	link, err := bus.ConnectOptions(b, "pipe", wire.BusCodec{}, nil, []string{agent.ResultsTopic}, bus.LinkOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { link.Close(); <-drained }()
	far := <-peer
	send := func() {
		if _, err := far.Write(frame); err != nil {
			t.Fatal(err)
		}
		if n := <-delivered; n != rows {
			t.Fatalf("delivered a report of %d groups, want %d", n, rows)
		}
	}
	send()
	if n := testing.AllocsPerRun(20, send); n > 1 {
		t.Errorf("a link receiving an %d-row report frame allocates %.1f objects/frame after the first, want at most 1 (the boxed message)", rows, n)
	}
}
