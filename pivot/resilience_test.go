package pivot

import (
	"context"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/wire"
)

// Full-stack chaos suite: a distributed deployment (frontend + worker over
// the TCP pub/sub server) survives the bus being killed and restarted
// mid-query. Agents reconnect within the backoff bound, reports flushed
// during the outage are replayed from the agent's ring buffer, query
// results converge, and the drop counters exactly account for any loss.
// Seeds are fixed; the suite is deterministic under -race -count=N.

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosBusOptions is the deterministic reconnect schedule for this suite.
func chaosBusOptions(seed int64, retention int) BusOptions {
	return BusOptions{
		Reconnect:   true,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        seed,
		Retention:   retention,
	}
}

// linkConnected reads the runtime's "bus.link.connected" gauge.
func linkConnected(pt *PT) bool {
	return pt.Frontend.Telemetry().Snapshot().Gauges["bus.link.connected"] == 1
}

// countRow returns the COUNT cell of the query's single group row, or -1.
func countRow(q *Query) int64 {
	rows := q.Rows()
	if len(rows) == 0 {
		return -1
	}
	return rows[0][1].Int()
}

func TestQueryConvergesAcrossBusOutageWithReplay(t *testing.T) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	frontend := New("frontend")
	frontend.Define("Work.Do", "n")
	feDisconnect, err := frontend.ConnectFrontend(addr, chaosBusOptions(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer feDisconnect()

	worker := New("worker")
	tp := worker.Define("Work.Do", "n")
	// No reconnect ordering is imposed: if the worker beats the frontend
	// back and replays first, the server parks the reports until the
	// frontend resubscribes.
	wkDisconnect, err := worker.ConnectBusWith(addr, chaosBusOptions(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer wkDisconnect()

	q, err := frontend.Install(`From w In Work.Do GroupBy w.host Select w.host, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "install to reach the worker", tp.Enabled)

	cross := func(n int) {
		for i := 0; i < n; i++ {
			tp.Here(worker.NewRequest(context.Background()), int64(i))
		}
	}

	// Phase 1: healthy. 10 crossings reach the frontend.
	cross(10)
	worker.Flush()
	waitFor(t, "pre-outage results", func() bool { return countRow(q) == 10 })

	// Phase 2: the bus dies mid-query. Both links notice, and the three
	// reports flushed during the outage are retained, not lost.
	srv.Close()
	waitFor(t, "links to notice the outage", func() bool {
		return !linkConnected(frontend) && !linkConnected(worker)
	})
	for i := 0; i < 3; i++ {
		cross(1)
		worker.Flush()
	}
	if n := worker.Agent.Buffered(); n != 3 {
		t.Fatalf("buffered reports = %d, want 3", n)
	}
	if st := worker.Agent.Stats(); st.ReportsRetained != 3 || st.ReportsDropped != 0 {
		t.Fatalf("outage stats = %+v", st)
	}

	// Phase 3: the bus comes back at the same address. Links reconnect
	// within the backoff bound, the buffer replays, and results converge
	// to all 13 crossings with zero loss.
	srv2, err := bus.Serve(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "links to reconnect", func() bool {
		return linkConnected(frontend) && linkConnected(worker)
	})
	waitFor(t, "retained reports to replay", func() bool { return worker.Agent.Buffered() == 0 })
	waitFor(t, "results to converge", func() bool { return countRow(q) == 13 })

	// One more healthy interval so a post-reconnect heartbeat reaches the
	// frontend with the resilience counters.
	cross(1)
	worker.Flush()
	waitFor(t, "results after recovery", func() bool { return countRow(q) == 14 })

	st := worker.Agent.Stats()
	if st.ReportsReplayed != 3 || st.ReportsDropped != 0 || st.Reconnects < 1 {
		t.Errorf("recovery stats = %+v", st)
	}
	// Exact accounting: every report the agent ever published was merged.
	waitFor(t, "all reports merged", func() bool {
		s := frontend.Status()
		return len(s.Queries) == 1 && s.Queries[0].Reports == st.Reports
	})
	waitFor(t, "heartbeat with reconnect count", func() bool {
		for _, a := range frontend.Status().Agents {
			if a.ProcName == "worker" && a.Stats.Reconnects >= 1 && a.Stats.ReportsReplayed == 3 {
				return true
			}
		}
		return false
	})
}

// tcpCombiner is a standalone combiner-tier process bridged onto the TCP
// bus: a private local bus whose link receives the tier's partition
// topics and sends the merged stream upstream on the shared results
// topic (plus heartbeats).
type tcpCombiner struct {
	comb *combiner.Combiner
	link *bus.Link
}

func startTCPCombiner(t *testing.T, addr, name string, topics []string) *tcpCombiner {
	t.Helper()
	b := bus.New()
	comb := combiner.New(nil, "ctier", name, b, combiner.Config{
		Interval:  time.Second, // flushed explicitly by the test
		Subscribe: topics,
	})
	link, err := bus.ConnectOptions(b, addr, wire.BusCodec{},
		[]string{agent.ResultsTopic, agent.HealthTopic}, topics,
		bus.LinkOptions{
			Reconnect:   true,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
			JitterSeed:  9,
		})
	if err != nil {
		t.Fatalf("combiner %s: %v", name, err)
	}
	return &tcpCombiner{comb: comb, link: link}
}

// TestCombinerKillRehomesAndConservesTuples kills a mid-tier combiner
// while it holds merged-but-unflushed state. The loss is bounded to
// exactly that pending window — drained and counted, never guessed —
// while reports published during the ownerless interval park at the bus
// server and re-home to the replacement combiner on its first subscribe.
// Conservation: crossings = rows delivered + tuples drained from the
// victim, exactly.
func TestCombinerKillRehomesAndConservesTuples(t *testing.T) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	serverConns := func() int64 {
		return srv.Telemetry().Snapshot().Gauges["bus.server.conns"]
	}

	frontend := New("frontend")
	frontend.Define("Work.Do", "n")
	feDisconnect, err := frontend.ConnectFrontend(addr, chaosBusOptions(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer feDisconnect()

	// The worker reports on a partition topic owned by the combiner tier,
	// not on the shared results topic: killing the combiner makes the
	// partition ownerless, which is the failure under test.
	partition := combiner.PartitionTopic(0, 1)
	worker := New("worker")
	tp := worker.Define("Work.Do", "n")
	wOpts := chaosBusOptions(6, 16)
	wOpts.ReportTopic = partition
	wkDisconnect, err := worker.ConnectBusWith(addr, wOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer wkDisconnect()

	midA := startTCPCombiner(t, addr, "mid-0", []string{partition})
	waitFor(t, "all three links registered", func() bool { return serverConns() == 3 })

	q, err := frontend.Install(`From w In Work.Do GroupBy w.host Select w.host, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "install to reach the worker", tp.Enabled)

	cross := func(n int) {
		for i := 0; i < n; i++ {
			tp.Here(worker.NewRequest(context.Background()), int64(i))
		}
	}

	// Phase 1: healthy tree. 10 crossings flow worker → partition topic →
	// combiner → results topic → frontend.
	cross(10)
	worker.Flush()
	waitFor(t, "combiner to merge the first report", func() bool {
		return midA.comb.Stats().CombinerReportsMerged == 1
	})
	midA.comb.Flush()
	waitFor(t, "pre-kill results via the tree", func() bool { return countRow(q) == 10 })

	// Phase 2: 4 crossings reach the combiner but it is killed before it
	// flushes them upstream. Wait for the server to deregister the dead
	// conn before publishing more — frames relayed to a half-dead conn
	// would be unaccounted loss, which is exactly what this test forbids.
	cross(4)
	worker.Flush()
	waitFor(t, "combiner to merge the doomed report", func() bool {
		return midA.comb.Stats().CombinerReportsMerged == 2
	})
	midA.link.Close()
	waitFor(t, "server to drop the dead combiner conn", func() bool { return serverConns() == 2 })
	victim := midA.comb.DrainPending()
	midA.comb.Close()
	var lost int64
	for i := range victim {
		for _, g := range victim[i].Groups {
			lost += g.States[0].Result().Int()
		}
	}
	if lost != 4 {
		t.Fatalf("victim pending = %d tuples, want exactly the 4 unflushed crossings", lost)
	}

	// Phase 3: the partition is ownerless; 5 more single-crossing reports
	// park at the server (worker's own link never dropped, so its retry
	// ring stays out of the picture).
	for i := 0; i < 5; i++ {
		cross(1)
		worker.Flush()
	}
	waitFor(t, "ownerless reports to park at the server", func() bool {
		return srv.Telemetry().Snapshot().Gauges["bus.server.retained"] >= 5
	})
	if st := worker.Agent.Stats(); st.ReportsDropped != 0 || st.ReportsRetained != 0 {
		t.Fatalf("worker link should never have dropped: %+v", st)
	}

	// Re-home: a replacement combiner subscribes to the partition; the
	// server flushes the parked frames to it, it merges and forwards, and
	// the query converges with zero loss beyond the drained window.
	midB := startTCPCombiner(t, addr, "mid-1", []string{partition})
	defer midB.link.Close()
	defer midB.comb.Close()
	waitFor(t, "replacement combiner to replay parked reports", func() bool {
		return midB.comb.Stats().CombinerReportsMerged == 5
	})
	midB.comb.Flush()
	waitFor(t, "results after re-home", func() bool { return countRow(q) == 15 })

	// The conservation ledger: 19 crossings total, 15 delivered, 4
	// accounted in the victim's drained pending. Exact, not approximate.
	if got, want := countRow(q)+lost, int64(19); got != want {
		t.Fatalf("conservation violated: delivered %d + drained %d = %d, want %d",
			countRow(q), lost, got, want)
	}

	// The replacement's heartbeat carries the tier accounting to the
	// frontend's status view.
	waitFor(t, "combiner heartbeat in frontend status", func() bool {
		for _, a := range frontend.Status().Agents {
			if a.Host == "ctier" && a.ProcName == "mid-1" &&
				a.Stats.CombinerReportsMerged == 5 && a.Stats.CombinerFramesOut >= 1 {
				return true
			}
		}
		return false
	})
}

func TestBoundedLossIsExactlyAccounted(t *testing.T) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	frontend := New("frontend")
	frontend.Define("Work.Do", "n")
	feDisconnect, err := frontend.ConnectFrontend(addr, chaosBusOptions(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer feDisconnect()

	worker := New("worker")
	tp := worker.Define("Work.Do", "n")
	// Tiny ring: only 2 outage reports survive; older ones are evicted
	// and counted as dropped.
	wkDisconnect, err := worker.ConnectBusWith(addr, chaosBusOptions(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer wkDisconnect()

	q, err := frontend.Install(`From w In Work.Do GroupBy w.host Select w.host, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "install to reach the worker", tp.Enabled)

	tp.Here(worker.NewRequest(context.Background()), int64(0))
	worker.Flush()
	waitFor(t, "pre-outage results", func() bool { return countRow(q) == 1 })

	srv.Close()
	waitFor(t, "worker link down", func() bool { return !linkConnected(worker) })
	// Five one-crossing reports during the outage; the ring keeps the
	// newest two.
	for i := 0; i < 5; i++ {
		tp.Here(worker.NewRequest(context.Background()), int64(i))
		worker.Flush()
	}
	if st := worker.Agent.Stats(); st.ReportsRetained != 5 || st.ReportsDropped != 3 {
		t.Fatalf("outage stats = %+v", st)
	}

	srv2, err := bus.Serve(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "worker link reconnect", func() bool { return linkConnected(worker) })
	waitFor(t, "surviving reports to replay", func() bool { return worker.Agent.Buffered() == 0 })

	// Convergence with bounded, fully accounted loss: 6 crossings total,
	// 3 lost to the ring bound, so COUNT converges to exactly 3.
	waitFor(t, "results to converge", func() bool { return countRow(q) == 3 })
	st := worker.Agent.Stats()
	if st.ReportsReplayed != 2 || st.ReportsDropped != 3 {
		t.Errorf("recovery stats = %+v", st)
	}
	// The ledger balances: published = merged + dropped.
	waitFor(t, "report ledger to balance", func() bool {
		s := frontend.Status()
		return len(s.Queries) == 1 && s.Queries[0].Reports == st.Reports-st.ReportsDropped
	})
}
