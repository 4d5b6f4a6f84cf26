package combiner

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// TestPartitionPinned pins the hash so a refactor cannot silently remap
// every agent onto new partitions (which would split in-flight query state
// across combiners mid-deployment).
func TestPartitionPinned(t *testing.T) {
	cases := []struct {
		host, proc string
		parts      int
		want       int
	}{
		{"h0", "worker", 16, 13},
		{"h1", "worker", 16, 14},
		{"rack3-host7", "svc", 16, 1},
		{"h0", "worker", 4, 1},
		{"h0worker", "", 16, 5}, // separator: ("h0","worker") != ("h0worker","")
		{"any", "proc", 1, 0},
		{"any", "proc", 0, 0},
	}
	for _, c := range cases {
		if got := Partition(c.host, c.proc, c.parts); got != c.want {
			t.Errorf("Partition(%q,%q,%d) = %d, want %d", c.host, c.proc, c.parts, got, c.want)
		}
	}
}

// TestPartitionStableAndInRange checks determinism and range over many
// identities and partition counts.
func TestPartitionStableAndInRange(t *testing.T) {
	for _, parts := range []int{1, 2, 7, 16, 64} {
		for i := 0; i < 200; i++ {
			host := fmt.Sprintf("rack%d-host%d", i/16, i%16)
			p := Partition(host, "worker", parts)
			if p < 0 || p >= parts {
				t.Fatalf("Partition(%q) = %d out of range [0,%d)", host, p, parts)
			}
			if again := Partition(host, "worker", parts); again != p {
				t.Fatalf("Partition(%q) unstable: %d then %d", host, p, again)
			}
		}
	}
}

// TestPartitionSpread: 1024 synthetic hosts over 16 partitions should leave
// no partition empty and none grossly overloaded.
func TestPartitionSpread(t *testing.T) {
	const parts = 16
	counts := make([]int, parts)
	for i := 0; i < 1024; i++ {
		counts[Partition(fmt.Sprintf("rack%d-host%d", i/16, i%16), "worker", parts)]++
	}
	mean := 1024 / parts
	for p, n := range counts {
		if n == 0 {
			t.Errorf("partition %d empty", p)
		}
		if n > 3*mean {
			t.Errorf("partition %d overloaded: %d agents (mean %d)", p, n, mean)
		}
	}
}

// TestPartitionTopicNames: unique names, and the total is baked in so
// different sharding widths can never cross-subscribe.
func TestPartitionTopicNames(t *testing.T) {
	if got := PartitionTopic(3, 16); got != "pt.report.p3of16" {
		t.Fatalf("PartitionTopic(3,16) = %q", got)
	}
	seen := map[string]bool{}
	for _, parts := range []int{1, 4, 16} {
		topics := PartitionTopics(parts)
		if len(topics) != parts {
			t.Fatalf("PartitionTopics(%d) returned %d topics", parts, len(topics))
		}
		for _, topic := range topics {
			if seen[topic] {
				t.Fatalf("duplicate topic %q across widths", topic)
			}
			seen[topic] = true
		}
	}
}

// TestAssignPinned pins rendezvous ownership for a fixed membership.
func TestAssignPinned(t *testing.T) {
	members := []string{"mid0", "mid1", "mid2"}
	want := map[string]string{
		"pt.report.p0of4": "mid0",
		"pt.report.p1of4": "mid1",
		"pt.report.p2of4": "mid2",
		"pt.report.p3of4": "mid1",
	}
	for topic, m := range want {
		if got := Assign(topic, members); got != m {
			t.Errorf("Assign(%q) = %q, want %q", topic, got, m)
		}
	}
	if got := Assign("pt.report.p0of4", nil); got != "" {
		t.Errorf("Assign with empty membership = %q, want \"\"", got)
	}
}

// TestAssignRebalance: removing a member moves only its partitions; adding
// one steals only the partitions it now wins. Everything else stays put.
func TestAssignRebalance(t *testing.T) {
	topics := PartitionTopics(64)
	before := map[string]string{}
	members := []string{"mid0", "mid1", "mid2", "mid3"}
	for _, topic := range topics {
		before[topic] = Assign(topic, members)
	}

	// mid2 leaves: every partition not owned by mid2 keeps its owner.
	after := []string{"mid0", "mid1", "mid3"}
	moved := 0
	for _, topic := range topics {
		got := Assign(topic, after)
		if before[topic] != "mid2" {
			if got != before[topic] {
				t.Errorf("leave: %q moved %q -> %q though its owner stayed", topic, before[topic], got)
			}
		} else {
			moved++
			if got == "mid2" {
				t.Errorf("leave: %q still assigned to departed member", topic)
			}
		}
	}
	if moved == 0 {
		t.Fatal("leave: mid2 owned no partitions; test is vacuous")
	}

	// mid4 joins: partitions mid4 doesn't win keep their prior owner.
	joined := append(append([]string{}, members...), "mid4")
	stolen := 0
	for _, topic := range topics {
		got := Assign(topic, joined)
		if got == "mid4" {
			stolen++
		} else if got != before[topic] {
			t.Errorf("join: %q moved %q -> %q though mid4 didn't win it", topic, before[topic], got)
		}
	}
	if stolen == 0 {
		t.Fatal("join: mid4 stole no partitions; test is vacuous")
	}
}

// TestOwnedPartition: Owned splits the topic set disjointly and completely
// across the membership.
func TestOwnedPartition(t *testing.T) {
	topics := PartitionTopics(32)
	members := []string{"a", "b", "c"}
	var union []string
	for _, m := range members {
		union = append(union, Owned(topics, members, m)...)
	}
	sort.Strings(union)
	want := append([]string(nil), topics...)
	sort.Strings(want)
	if !reflect.DeepEqual(union, want) {
		t.Fatalf("Owned sets are not a partition of the topics:\n got %v\nwant %v", union, want)
	}
}

func countGroup(key string, n int64) *advice.Group {
	st := agg.New(agg.Count)
	for i := int64(0); i < n; i++ {
		st.Add(tuple.Int(1))
	}
	return &advice.Group{Key: key, Rep: tuple.Tuple{tuple.String(key)}, States: []agg.State{*st}}
}

// batch wraps one report in the frame agents publish.
func batch(r agent.Report) agent.ReportBatch {
	return agent.ReportBatch{Reports: []agent.Report{r}}
}

// snapshot copies the reports of a forwarded batch, which is lent to the
// handler for the Publish that delivers it (see Combiner.Flush).
func snapshot(rb agent.ReportBatch) []agent.Report {
	out := make([]agent.Report, len(rb.Reports))
	for i := range rb.Reports {
		out[i] = rb.Reports[i].Copy()
	}
	return out
}

// TestCombinerForwards: reports from two partition topics land in their
// queries' mergers and forward upstream as one batch, key-sorted and
// stamped with the tier's identity, with exact merged/forwarded
// accounting. (What merging does to the contents is advice.Merger's
// contract — see advice.TestMergeAlgebra.)
func TestCombinerForwards(t *testing.T) {
	b := bus.New()
	var got []agent.ReportBatch
	b.Subscribe(agent.ResultsTopic, func(msg any) {
		if rb, ok := msg.(agent.ReportBatch); ok {
			got = append(got, agent.ReportBatch{Reports: snapshot(rb)})
		}
	})
	var beats []agent.Heartbeat
	b.Subscribe(agent.HealthTopic, func(msg any) {
		if hb, ok := msg.(agent.Heartbeat); ok {
			beats = append(beats, hb)
		}
	})

	c := New(nil, "rack0", "combiner-0", b, Config{
		Interval:  time.Millisecond,
		Subscribe: PartitionTopics(2),
	})
	defer c.Close()

	b.Publish(PartitionTopic(0, 2), batch(agent.Report{
		QueryID: "Q1", Host: "h0", ProcName: "w",
		Groups: []*advice.Group{countGroup("z", 1), countGroup("k", 3)},
	}))
	b.Publish(PartitionTopic(1, 2), agent.ReportBatch{
		Reports: []agent.Report{
			{QueryID: "Q1", Host: "h1", ProcName: "w", Groups: []*advice.Group{countGroup("k", 4)}},
			{QueryID: "Q2", Host: "h1", ProcName: "w", Raws: []tuple.Tuple{{tuple.Int(7)}},
				Drops: []baggage.DropRecord{{Slot: "Q2", Key: "h1.w.1"}}},
		},
	})
	if c.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", c.Pending())
	}
	c.Flush()

	if len(got) != 1 {
		t.Fatalf("upstream frames = %d, want 1", len(got))
	}
	rs := got[0].Reports
	if len(rs) != 2 || rs[0].QueryID != "Q1" || rs[1].QueryID != "Q2" {
		t.Fatalf("unexpected forwarded reports: %+v", rs)
	}
	if rs[0].Host != "rack0" || rs[0].ProcName != "combiner-0" {
		t.Fatalf("forwarded report not stamped with combiner identity: %+v", rs[0])
	}
	if g := rs[0].Groups; len(g) != 2 || g[0].Key != "k" || g[1].Key != "z" || g[0].States[0].Result().Int() != 7 {
		t.Fatalf("Q1 did not drain as k=7, z in key order: %+v", g)
	}
	if len(rs[1].Raws) != 1 || len(rs[1].Drops) != 1 || rs[1].Drops[0].Key != "h1.w.1" {
		t.Fatalf("Q2 raws/drops not forwarded: %+v", rs[1])
	}

	st := c.Stats()
	if st.CombinerReportsMerged != 3 {
		t.Errorf("CombinerReportsMerged = %d, want 3", st.CombinerReportsMerged)
	}
	if st.CombinerFramesOut != 1 || st.Batches != 1 {
		t.Errorf("frames out = %d/%d, want 1/1", st.CombinerFramesOut, st.Batches)
	}
	if st.Reports != 2 || st.RowsReported != 3 {
		t.Errorf("Reports/RowsReported = %d/%d, want 2/3", st.Reports, st.RowsReported)
	}
	if len(beats) != 1 || beats[0].Stats.CombinerReportsMerged != 3 {
		t.Errorf("heartbeat missing combiner accounting: %+v", beats)
	}
	if c.Pending() != 0 {
		t.Errorf("Pending() = %d after flush, want 0", c.Pending())
	}
}

// TestCombinerDoesNotMutateSource: the in-process bus shares pointers, so
// the combiner must clone a group before merging into it.
func TestCombinerDoesNotMutateSource(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	defer c.Close()

	src := countGroup("k", 3)
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{src}}))
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 5)}}))
	if src.States[0].Result().Int() != 3 {
		t.Fatalf("combiner mutated the published group: count %d, want 3", src.States[0].Result().Int())
	}
	c.Flush()
	if src.States[0].Result().Int() != 3 {
		t.Fatalf("flush mutated the published group: count %d, want 3", src.States[0].Result().Int())
	}
}

// TestCombinerBatchSplitting: merged reports that together exceed
// agent.DefaultBatchBytes forward as several frames, all counted. (The
// splitting rule itself is agent.SplitBatches' — see its test.)
func TestCombinerBatchSplitting(t *testing.T) {
	b := bus.New()
	var frames int
	b.Subscribe(agent.ResultsTopic, func(msg any) {
		if _, ok := msg.(agent.ReportBatch); ok {
			frames++
		}
	})
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	defer c.Close()
	big := tuple.Tuple{tuple.String(strings.Repeat("x", agent.DefaultBatchBytes/2))}
	for q := 0; q < 5; q++ {
		b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: fmt.Sprintf("Q%d", q), Raws: []tuple.Tuple{big}}))
	}
	c.Flush()
	if frames != 5 {
		t.Fatalf("frames = %d, want 5 (two half-cap reports never share a frame)", frames)
	}
	if got := c.Stats().CombinerFramesOut; got != 5 {
		t.Fatalf("CombinerFramesOut = %d, want 5", got)
	}
}

// TestCombinerTenantRouting: the combiner that delivers to frontends (no
// Upstream) learns ownership from control traffic and fans each tenant's
// queries out on that tenant's own results topic; unowned queries go out
// on the shared one. A combiner with an Upstream only forwards.
func TestCombinerTenantRouting(t *testing.T) {
	b := bus.New()
	byTopic := map[string][]string{} // topic -> query IDs seen
	collect := func(topic string) {
		b.Subscribe(topic, func(msg any) {
			if rb, ok := msg.(agent.ReportBatch); ok {
				for _, r := range rb.Reports {
					byTopic[topic] = append(byTopic[topic], r.QueryID)
				}
			}
		})
	}
	collect(agent.ResultsTopic)
	collect(agent.TenantResultsTopic("alice"))
	collect(agent.TenantResultsTopic("bob"))

	c := New(nil, "root", "combiner-root", b, Config{Subscribe: []string{RootTopic}})
	defer c.Close()

	b.Publish(agent.ControlTopic, agent.Install{QueryID: "alice.Q1", Tenant: "alice"})
	b.Publish(agent.ControlTopic, agent.Install{QueryID: "bob.Q1", Tenant: "bob"})
	for _, q := range []string{"alice.Q1", "bob.Q1", "Q9"} {
		b.Publish(RootTopic, batch(agent.Report{QueryID: q, Groups: []*advice.Group{countGroup("k", 1)}}))
	}
	c.Flush()

	want := map[string][]string{
		agent.TenantResultsTopic("alice"): {"alice.Q1"},
		agent.TenantResultsTopic("bob"):   {"bob.Q1"},
		agent.ResultsTopic:                {"Q9"},
	}
	if !reflect.DeepEqual(byTopic, want) {
		t.Fatalf("routing mismatch:\n got %v\nwant %v", byTopic, want)
	}

	// Uninstall clears the route: alice's next frames fall back upstream.
	b.Publish(agent.ControlTopic, agent.Uninstall{QueryID: "alice.Q1"})
	b.Publish(RootTopic, batch(agent.Report{QueryID: "alice.Q1", Groups: []*advice.Group{countGroup("k", 1)}}))
	c.Flush()
	if got := byTopic[agent.ResultsTopic]; len(got) != 2 || got[1] != "alice.Q1" {
		t.Fatalf("post-uninstall frames not rerouted upstream: %v", byTopic)
	}

	// A tier with an Upstream sits below the delivering one: it holds no
	// control subscription and forwards a tenant's query like any other.
	collect("up")
	mid := New(nil, "mid", "combiner-mid", b, Config{Subscribe: []string{PartitionTopic(0, 1)}, Upstream: "up"})
	defer mid.Close()
	if len(mid.subs) != 1 {
		t.Fatalf("mid tier holds %d subscriptions, want only its partition topic", len(mid.subs))
	}
	b.Publish(agent.ControlTopic, agent.Install{QueryID: "bob.Q2", Tenant: "bob"})
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "bob.Q2", Groups: []*advice.Group{countGroup("k", 1)}}))
	mid.Flush()
	if got := byTopic["up"]; len(got) != 1 || got[0] != "bob.Q2" {
		t.Fatalf("mid tier did not forward bob.Q2 upstream: %v", byTopic)
	}
	if got := byTopic[agent.TenantResultsTopic("bob")]; len(got) != 1 {
		t.Fatalf("mid tier routed to the tenant topic: %v", byTopic)
	}
}

// TestCombinerRouteLease: a route lives as long as its query's lease is
// renewed and is forgotten two TTLs after the last renewal — a tenant that
// dies without uninstalling (Cluster.DropTenantFrontend) must not stay in
// the delivering tier's table forever. TTL 0 stays immortal.
func TestCombinerRouteLease(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		c := New(env, "root", "combiner-root", b, Config{Interval: 500 * time.Millisecond, Subscribe: []string{RootTopic}})
		defer c.Close()
		routes := func() int {
			c.mu.Lock()
			defer c.mu.Unlock()
			return len(c.routes)
		}
		b.Publish(agent.ControlTopic, agent.Install{QueryID: "acme.Q1", Tenant: "acme", TTL: time.Second})
		b.Publish(agent.ControlTopic, agent.Install{QueryID: "acme.Q2", Tenant: "acme", TTL: time.Second})
		b.Publish(agent.ControlTopic, agent.Install{QueryID: "forever.Q1", Tenant: "forever"})

		// Renewed every 1.5 s — later than the agents' 1×TTL, inside the
		// route's 2×TTL — Q1 survives; Q2 is never renewed.
		for i := 0; i < 4; i++ {
			env.Sleep(1500 * time.Millisecond)
			b.Publish(agent.ControlTopic, agent.Renew{QueryIDs: []string{"acme.Q1", "forever.Q1", "gone.Q7"}})
		}
		if got := routes(); got != 2 {
			t.Fatalf("%d routes after 6 s with acme.Q1 renewed, want 2 (acme.Q1, forever.Q1)", got)
		}
		// A renewal that carries a TTL re-leases the route at that TTL.
		b.Publish(agent.ControlTopic, agent.Renew{QueryIDs: []string{"acme.Q1"}, TTL: 3 * time.Second})
		env.Sleep(5 * time.Second)
		if got := routes(); got != 2 {
			t.Fatalf("%d routes 5 s into a 3 s lease, want 2", got)
		}
		env.Sleep(5 * time.Second)
		if got := routes(); got != 1 {
			t.Fatalf("%d routes 10 s after the last renewal, want 1 (the unleased one)", got)
		}
	})
}

// TestDrainPendingAccounting: DrainPending returns the unforwarded state
// exactly once, without publishing.
func TestDrainPendingAccounting(t *testing.T) {
	b := bus.New()
	var frames int
	b.Subscribe(agent.ResultsTopic, func(any) { frames++ })
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 6)}}))
	c.Close()

	drained := c.DrainPending()
	if len(drained) != 1 || drained[0].Groups[0].States[0].Result().Int() != 6 {
		t.Fatalf("DrainPending = %+v, want one Q1 report with count 6", drained)
	}
	if again := c.DrainPending(); len(again) != 0 {
		t.Fatalf("second DrainPending returned %d reports, want 0", len(again))
	}
	if frames != 0 {
		t.Fatalf("DrainPending published %d frames, want 0", frames)
	}
}

// TestCloseStopsIntake: after Close, published reports are no longer
// folded in.
func TestCloseStopsIntake(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	c.Close()
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1"}))
	if c.Pending() != 0 {
		t.Fatalf("closed combiner accepted a report")
	}
	c.Close() // idempotent
}

// flushedReports flushes c and returns copies of the reports it forwarded
// on the shared results topic.
func flushedReports(b *bus.Bus, c *Combiner) []agent.Report {
	var got []agent.Report
	sub := b.Subscribe(agent.ResultsTopic, func(msg any) {
		if rb, ok := msg.(agent.ReportBatch); ok {
			got = append(got, snapshot(rb)...)
		}
	})
	defer b.Unsubscribe(sub)
	c.Flush()
	return got
}

// TestCombinerQuietQueryLeavesAfterOneFlush: a query's merger, and its
// group table, stay across a flush for the next interval, but a query that
// sent nothing since (uninstalled, or a one-round probe) is gone after one
// quiet flush.
func TestCombinerQuietQueryLeavesAfterOneFlush(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	defer c.Close()
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 2)}}))
	if got := flushedReports(b, c); len(got) != 1 {
		t.Fatalf("first flush forwarded %d reports, want 1", len(got))
	}
	if c.Pending() != 0 || len(c.pending) != 1 {
		t.Fatalf("after a flush Pending() = %d with %d mergers held, want 0 with 1", c.Pending(), len(c.pending))
	}
	if got := flushedReports(b, c); len(got) != 0 {
		t.Fatalf("a quiet flush forwarded %d reports, want 0", len(got))
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d mergers held after a quiet flush, want 0", len(c.pending))
	}
}

// TestCombinerRejectsMalformedFirstReportOfLaterInterval: a kept merger
// that was handed off holds nothing, so a malformed report that is the
// first of an interval leaves nothing pending, as it does for a query the
// combiner has never seen, and is counted.
func TestCombinerRejectsMalformedFirstReportOfLaterInterval(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	defer c.Close()
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 2)}}))
	c.Flush()
	bad := countGroup("j", 1)
	bad.States = append(bad.States, *agg.New(agg.Sum))
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 1), bad}}))
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d after a malformed report, want 0", c.Pending())
	}
	if st := c.Stats(); st.ReportsRejected != 1 || st.CombinerReportsMerged != 1 {
		t.Fatalf("rejected/merged = %d/%d, want 1/1", st.ReportsRejected, st.CombinerReportsMerged)
	}
	if got := flushedReports(b, c); len(got) != 0 {
		t.Fatalf("flush after a malformed report forwarded %d reports, want 0", len(got))
	}
}

// TestCombinerRelearnsGroupShapeEachInterval: a combiner merger knows no
// query, so it takes its group shape from the first group it sees. A
// merger kept across a flush learns it again each interval, as a fresh
// one would.
func TestCombinerRelearnsGroupShapeEachInterval(t *testing.T) {
	b := bus.New()
	c := New(nil, "r", "c", b, Config{Subscribe: []string{PartitionTopic(0, 1)}})
	defer c.Close()
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{countGroup("k", 2)}}))
	c.Flush()
	wide := countGroup("k", 3)
	wide.States = append(wide.States, *agg.New(agg.Sum))
	b.Publish(PartitionTopic(0, 1), batch(agent.Report{QueryID: "Q1", Groups: []*advice.Group{wide}}))
	got := flushedReports(b, c)
	if len(got) != 1 || len(got[0].Groups) != 1 || len(got[0].Groups[0].States) != 2 || got[0].Groups[0].States[0].Result().Int() != 3 {
		t.Fatalf("second interval forwarded %+v, want one group k with two states, count 3", got)
	}
	if st := c.Stats(); st.ReportsRejected != 0 {
		t.Fatalf("ReportsRejected = %d, want 0", st.ReportsRejected)
	}
}

// TestCombinerTenantRunsKeepOrder: the delivering tier sends one run per
// topic, topics in the order their first query sorts, each run's queries in
// query order, however the tenants interleave.
func TestCombinerTenantRunsKeepOrder(t *testing.T) {
	b := bus.New()
	var frames []string // "topic: query ids" per frame, in publish order
	for _, topic := range []string{agent.ResultsTopic, agent.TenantResultsTopic("alice"), agent.TenantResultsTopic("bob")} {
		b.Subscribe(topic, func(msg any) {
			var ids []string
			for _, r := range msg.(agent.ReportBatch).Reports {
				ids = append(ids, r.QueryID)
			}
			frames = append(frames, topic+": "+strings.Join(ids, " "))
		})
	}
	c := New(nil, "root", "combiner-root", b, Config{Subscribe: []string{RootTopic}})
	defer c.Close()
	owners := map[string]string{"a1": "bob", "a2": "", "a3": "alice", "a4": "bob", "a5": "", "a6": "alice"}
	for q, tenant := range owners {
		if tenant != "" {
			b.Publish(agent.ControlTopic, agent.Install{QueryID: q, Tenant: tenant})
		}
		b.Publish(RootTopic, batch(agent.Report{QueryID: q, Groups: []*advice.Group{countGroup("k", 1)}}))
	}
	c.Flush()
	want := []string{
		agent.TenantResultsTopic("bob") + ": a1 a4",
		agent.ResultsTopic + ": a2 a5",
		agent.TenantResultsTopic("alice") + ": a3 a6",
	}
	if !reflect.DeepEqual(frames, want) {
		t.Fatalf("frames:\n got %q\nwant %q", frames, want)
	}
}

// TestCombinerLendsForwardedRowsUnderConcurrentMerges: a forwarded batch
// is lent for its Publish, and the combiner builds later intervals in its
// rows. Two publishers merge into the combiner, over key sets that change
// with every report, while another goroutine flushes at least 200 times
// and a fourth drains the pending state now and then. An upstream merger
// that merges each forwarded batch during its Publish ends with exactly
// the totals published, less what the drains took; and every drained
// report still encodes to the bytes it encoded to when drained. Releasing
// a merger's rows before its publish returns, or reclaiming the rows of a
// drain, fails here.
func TestCombinerLendsForwardedRowsUnderConcurrentMerges(t *testing.T) {
	const publishers, queries, keys, intervals = 2, 3, 40, 200
	b := bus.New()
	c := New(nil, "mid", "combiner", b, Config{Subscribe: PartitionTopics(publishers), Upstream: RootTopic})
	defer c.Close()

	var upMu sync.Mutex
	up := map[string]*advice.Merger{}
	b.Subscribe(RootTopic, func(msg any) {
		upMu.Lock()
		defer upMu.Unlock()
		for _, r := range msg.(agent.ReportBatch).Reports {
			m := up[r.QueryID]
			if m == nil {
				m = advice.NewMerger(nil, advice.Unbounded)
				up[r.QueryID] = m
			}
			if _, err := m.Merge(r.Groups, r.Raws, r.Drops); err != nil {
				t.Errorf("upstream merge of %s: %v", r.QueryID, err)
			}
		}
	})
	totals := func(add map[string]int64, rs []agent.Report) {
		for _, r := range rs {
			for _, g := range r.Groups {
				add[r.QueryID+"/"+g.Key] += g.States[0].Result().Int()
			}
		}
	}

	var flushed atomic.Int64
	sent := make([]map[string]int64, publishers) // query/key → count
	var pubs sync.WaitGroup
	for p := range sent {
		sent[p] = map[string]int64{}
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; flushed.Load() < intervals; i++ {
				q := fmt.Sprintf("Q%d", i%queries)
				var groups []*advice.Group
				for j := 0; j < 8; j++ {
					key, n := fmt.Sprintf("k%02d", (i*5+j*3+p)%keys), int64(1+(i+j)%4)
					groups = append(groups, countGroup(key, n))
					sent[p][q+"/"+key] += n
				}
				b.Publish(PartitionTopic(p, publishers), batch(agent.Report{QueryID: q, Host: "h", ProcName: fmt.Sprint(p), Groups: groups}))
			}
		}(p)
	}

	type drain struct {
		reports []agent.Report
		frame   []byte
	}
	var drains []drain
	stop := make(chan struct{})
	drainer := make(chan struct{})
	go func() {
		defer close(drainer)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if rs := c.DrainPending(); len(rs) > 0 {
				frame, err := wire.Marshal(agent.ReportBatch{Reports: rs})
				if err != nil {
					t.Errorf("marshal drained reports: %v", err)
					return
				}
				drains = append(drains, drain{rs, frame})
			}
		}
	}()
	for flushed.Load() < intervals {
		c.Flush()
		flushed.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	pubs.Wait()
	close(stop)
	<-drainer
	c.Flush()

	want, got := map[string]int64{}, map[string]int64{}
	for _, m := range sent {
		for k, n := range m {
			want[k] += n
		}
	}
	for id, m := range up {
		totals(got, []agent.Report{{QueryID: id, Groups: m.Groups()}})
	}
	for i, d := range drains {
		frame, err := wire.Marshal(agent.ReportBatch{Reports: d.reports})
		if err != nil || !bytes.Equal(frame, d.frame) {
			t.Fatalf("drain %d of %d no longer encodes to the bytes it was drained as (err %v)", i, len(drains), err)
		}
		totals(got, d.reports)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("upstream and drained totals differ from what was published:\n got %v\nwant %v", got, want)
	}
	if len(drains) == 0 {
		t.Log("no drain found pending state; the drain path went unexercised this run")
	}
}
