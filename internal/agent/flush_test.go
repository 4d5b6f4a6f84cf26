package agent

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/bus"
	"repro/internal/tracepoint"
)

// TestSplitBatches pins the one batch-splitting rule every frame producer
// shares: consecutive runs, a new run when the next item would push the
// sum past DefaultBatchBytes, an oversized item alone, nothing dropped or
// reordered.
func TestSplitBatches(t *testing.T) {
	const u = DefaultBatchBytes / 4
	cases := []struct {
		name  string
		sizes []int
		want  [][]int
	}{
		{"empty", nil, nil},
		{"all fit", []int{u, u, u}, [][]int{{u, u, u}}},
		{"exactly the cap", []int{2 * u, 2 * u}, [][]int{{2 * u, 2 * u}}},
		{"one past the cap", []int{2 * u, 2*u + 1}, [][]int{{2 * u}, {2*u + 1}}},
		{"greedy runs", []int{3 * u, u, u, 3 * u, 2 * u}, [][]int{{3 * u, u}, {u, 3 * u}, {2 * u}}},
		{"oversized ships alone", []int{u, 9 * u, u}, [][]int{{u}, {9 * u}, {u}}},
		{"oversized first", []int{9 * u, 9 * u}, [][]int{{9 * u}, {9 * u}}},
	}
	for _, c := range cases {
		var got [][]int
		SplitBatches(c.sizes, func(n *int) int { return *n }, func(run []int) {
			got = append(got, run)
		})
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: split %v into %v, want %v", c.name, c.sizes, got, c.want)
		}
	}
}

// TestAgentSplitsOversizedInterval: an interval whose reports together
// exceed DefaultBatchBytes ships as several ReportBatch frames, each
// counted in Stats.Batches, with every report delivered once, in order.
func TestAgentSplitsOversizedInterval(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	a := New(nil, info("h1"), reg, b, time.Second)
	defer a.Close()
	var frames int
	var ids []string
	b.Subscribe(ResultsTopic, func(msg any) {
		frames++
		for _, r := range resultReports(msg) {
			ids = append(ids, r.QueryID)
		}
	})
	for _, id := range []string{"Q1", "Q2", "Q3"} {
		p := q1Program()
		p.QueryID = id
		a.Deliver(Install{QueryID: id, Programs: []*advice.Program{p}})
	}
	// The group key and representative both carry the host, so one group
	// with a quarter-cap host makes a report of more than half the cap.
	tp.Here(request(strings.Repeat("h", DefaultBatchBytes/4)), 1)
	a.Flush()
	if want := []string{"Q1", "Q2", "Q3"}; frames != 3 || !reflect.DeepEqual(ids, want) {
		t.Fatalf("got %d frames carrying %v, want 3 frames carrying %v", frames, ids, want)
	}
	if got := a.Stats().Batches; got != 3 {
		t.Fatalf("Stats.Batches = %d, want 3", got)
	}
}

// TestTenantUsageRebuiltOnlyOnChange: a quiet flush republishes the last
// tenant usage snapshot, the same slice with the same values; a flush after
// a tenant's tuples or the installed query set changed publishes a new one
// and leaves every snapshot already published as it was.
func TestTenantUsageRebuiltOnlyOnChange(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	a := New(nil, info("h1"), reg, b, 0)
	defer a.Close()
	var frames [][]TenantQuota
	b.Subscribe(HealthTopic, func(msg any) {
		if u, ok := msg.(TenantUsage); ok {
			frames = append(frames, u.Usage)
		}
	})
	install := func(id string) {
		b.Publish(ControlTopic, Install{QueryID: id, Programs: []*advice.Program{stressProgram(id)}, Tenant: "t"})
	}
	install("A")
	tp.Here(request("h1"), 1)
	a.Flush()
	a.Flush() // quiet
	install("B")
	a.Flush()
	tp.Here(request("h1"), 1) // one tuple into each of A and B
	a.Flush()
	want := [][]TenantQuota{
		{{Tenant: "t", Queries: 1, Tuples: 1}},
		{{Tenant: "t", Queries: 1, Tuples: 1}},
		{{Tenant: "t", Queries: 2, Tuples: 1}},
		{{Tenant: "t", Queries: 2, Tuples: 3}},
	}
	if !reflect.DeepEqual(frames, want) {
		t.Fatalf("usage frames = %v, want %v", frames, want)
	}
	if &frames[0][0] != &frames[1][0] {
		t.Error("a quiet flush rebuilt the usage snapshot")
	}
	if &frames[1][0] == &frames[2][0] || &frames[2][0] == &frames[3][0] {
		t.Error("a changed usage was written into a published snapshot")
	}
}
