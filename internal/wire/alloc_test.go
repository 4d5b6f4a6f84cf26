//go:build !race

package wire

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/tuple"
)

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

// reportBatch returns a batch of one report of the given number of groups
// of GroupBy host Select host, SUM, COUNT.
func reportBatch(groups int) agent.ReportBatch {
	rep := agent.Report{QueryID: "Q1", Host: "h", ProcName: "p", Time: time.Second}
	for i := 0; i < groups; i++ {
		sum, count := agg.New(agg.Sum), agg.New(agg.Count)
		sum.Add(tuple.Int(int64(100 * i)))
		count.Add(tuple.Null)
		host := fmt.Sprintf("host-%d", i)
		rep.Groups = append(rep.Groups, &advice.Group{
			Key: host, Rep: tuple.Tuple{tuple.String(host), tuple.Null, tuple.Null},
			States: []agg.State{*sum, *count},
		})
	}
	return agent.ReportBatch{Reports: []agent.Report{rep}}
}

// TestAllocUnmarshalReportBatch pins the decode of a small report frame — a
// batch of one report with 8 groups of GroupBy host Select host, SUM, COUNT
// — at seven allocations, none of them per group: the group list and one
// slab each for the groups, their states and their values; the query id,
// the report list and the boxed batch. Keys and Rep strings borrow the
// frame. It was 71 when every group, tuple, state and list growth was an
// object of its own, and 24 while keys and Rep strings were copied out. A
// Reader that starts escaping to the heap fails here before it reaches the
// benchmark.
func TestAllocUnmarshalReportBatch(t *testing.T) {
	frame, err := Marshal(reportBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	const want = 7
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(frame); err != nil {
			t.Fatal(err)
		}
	}); n > want {
		t.Errorf("Unmarshal(ReportBatch of 8 groups) allocates %.1f objects/op, want at most %d", n, want)
	}
}

// TestAllocLinkSend: a link encodes each message into a buffer of its own
// that it reuses, so once the first send has grown that buffer, sending an
// 8192-row report or a heartbeat allocates nothing. The peer is one end of
// a pipe, drained into a fixed buffer, so the count is the sender's alone.
func TestAllocLinkSend(t *testing.T) {
	drained := make(chan struct{})
	dial := func(string) (net.Conn, error) {
		near, far := net.Pipe()
		go func() {
			defer close(drained)
			buf := make([]byte, 64<<10)
			for {
				if _, err := far.Read(buf); err != nil {
					return
				}
			}
		}()
		return near, nil
	}
	link, err := bus.ConnectOptions(bus.New(), "pipe", BusCodec{}, nil, nil, bus.LinkOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { link.Close(); <-drained }()
	for _, tc := range []struct {
		name string
		msg  any // boxed once, as the bus hands it over
	}{
		{"ReportBatch of 8192 rows", reportBatch(8192)},
		{"Heartbeat", fullHeartbeat()},
	} {
		if err := link.Send("t", tc.msg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := link.Send("t", tc.msg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Link.Send(%s) allocates %.1f objects/op after the first, want 0", tc.name, n)
		}
	}
}
