//go:build !race

package wire

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
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
	rep := agent.Report{QueryID: "Q1", Host: "h", ProcName: "p", Time: time.Second}
	for i := 0; i < 8; i++ {
		sum, count := agg.New(agg.Sum), agg.New(agg.Count)
		sum.Add(tuple.Int(int64(100 * i)))
		count.Add(tuple.Null)
		host := fmt.Sprintf("host-%d", i)
		rep.Groups = append(rep.Groups, &advice.Group{
			Key: host, Rep: tuple.Tuple{tuple.String(host), tuple.Null, tuple.Null},
			States: []agg.State{*sum, *count},
		})
	}
	frame, err := Marshal(agent.ReportBatch{Reports: []agent.Report{rep}})
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
