package cluster

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/combiner"
	"repro/internal/simtime"
	"repro/internal/tuple"
)

// tieredCluster is the package's test cluster behind a combiner tree n
// mids wide (0 = flat, which is testCluster).
func tieredCluster(env *simtime.Env, n int) *Cluster {
	cfg := DefaultConfig()
	cfg.RPCLatency = 0
	cfg.Combiners = n
	return New(env, cfg)
}

// TestFlatClusterHasNoTiers: Combiners 0 is a tree with no tiers — agents
// report on the topic the frontends read.
func TestFlatClusterHasNoTiers(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := tieredCluster(env, 0)
		if len(c.combiners) != 0 {
			t.Fatalf("flat cluster stood up %d combiners", len(c.combiners))
		}
		if got := c.Start("h1", "svc").Agent.ReportTopic(); got != agent.ResultsTopic {
			t.Fatalf("flat agent reports on %q, want %q", got, agent.ResultsTopic)
		}
	})
}

// TestCombinerTreeEndToEnd: behind a 2-wide tree, agent reports flow
// partition topic → mid combiner → root → frontend, results match the flat
// answer, and the tiers' merge/forward accounting is non-trivial.
func TestCombinerTreeEndToEnd(t *testing.T) {
	env := simtime.NewEnv()
	var rows []tuple.Tuple
	var merged, frames int64
	env.Run(func() {
		c := tieredCluster(env, 2)
		p1 := c.Start("h1", "svc")
		tp1 := p1.Define("Work.Do", "n")

		h, err := c.PT.Install(`From e In Work.Do GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		// A process started after the install reports through the tree too.
		p2 := c.Start("h2", "svc")
		tp2 := p2.Define("Work.Do", "n")
		for i := 0; i < 3; i++ {
			tp1.Here(p1.NewRequest())
		}
		tp2.Here(p2.NewRequest())

		env.Sleep(3 * c.cfg.ReportInterval)
		c.FlushAgents()
		rows = h.Rows()
		for _, tier := range c.combiners {
			s := tier.Stats()
			merged += s.CombinerReportsMerged
			frames += s.CombinerFramesOut
		}

		// The frontend must not have seen any direct agent frames: agents
		// publish on partition topics only.
		for _, p := range c.Procs() {
			if p.Agent.ReportTopic() == agent.ResultsTopic {
				t.Errorf("agent %s reports on the flat results topic", p.Info.Host)
			}
		}
	})
	if len(rows) != 2 || rows[0][1].Int() != 3 || rows[1][1].Int() != 1 {
		t.Fatalf("rows = %v, want (h1,3),(h2,1)", rows)
	}
	if merged == 0 || frames == 0 {
		t.Fatalf("tree accounting empty: merged=%d frames=%d", merged, frames)
	}
}

// TestTenantFrontendOverTree: a tenant frontend's query rides the tree and
// is delivered on the tenant's own topic by the root combiner, while
// the primary's query still lands on the shared results topic. Both see
// exactly their own rows, and late-started processes replay the tenant's
// installs.
func TestTenantFrontendOverTree(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := tieredCluster(env, 2)
		ten := c.NewTenantFrontend("acme", 2)

		p1 := c.Start("h1", "svc")
		tp1 := p1.Define("Work.Do", "n")

		hTen, err := ten.Install(`From e In Work.Do GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		hPri, err := c.PT.Install(`From e In Work.Do GroupBy e.host Select e.host, SUM(e.n)`)
		if err != nil {
			t.Fatal(err)
		}

		// A process started after the installs must weave both queries.
		p2 := c.Start("h2", "svc")
		tp2 := p2.Define("Work.Do", "n")

		tp1.Here(p1.NewRequest(), 10)
		tp2.Here(p2.NewRequest(), 32)

		env.Sleep(3 * c.cfg.ReportInterval)
		c.FlushAgents()

		tenRows, priRows := hTen.Rows(), hPri.Rows()
		if len(tenRows) != 2 || tenRows[0][1].Int() != 1 || tenRows[1][1].Int() != 1 {
			t.Errorf("tenant rows = %v, want counts (h1,1),(h2,1)", tenRows)
		}
		if len(priRows) != 2 || priRows[0][1].Int() != 10 || priRows[1][1].Int() != 32 {
			t.Errorf("primary rows = %v, want sums (h1,10),(h2,32)", priRows)
		}

		// Dropping the tenant closes its subscriptions; its results stop.
		c.DropTenantFrontend(ten)
		if got := len(c.TenantFrontends()); got != 0 {
			t.Errorf("TenantFrontends() = %d after drop, want 0", got)
		}
		tp1.Here(p1.NewRequest(), 1)
		env.Sleep(3 * c.cfg.ReportInterval)
		c.FlushAgents()
		if got := hTen.Rows(); got[0][1].Int() != 1 {
			t.Errorf("dropped tenant still receiving: %v", got)
		}
	})
}

// TestTreeRebalanceOwnership: the partition topics of a tree's members
// cover the topic set disjointly (sanity of the cluster wiring against the
// combiner package's rendezvous assignment): a report published on any
// partition topic is taken in by exactly one mid.
func TestTreeRebalanceOwnership(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := tieredCluster(env, 3)
		mids := c.combiners[:3]
		for i, topic := range combiner.PartitionTopics(c.partitions) {
			before := make([]int, len(mids))
			for m, mid := range mids {
				before[m] = mid.Pending()
			}
			c.Bus.Publish(topic, agent.ReportBatch{Reports: []agent.Report{
				{QueryID: fmt.Sprintf("Q%d", i), Raws: []tuple.Tuple{{tuple.Int(1)}}},
			}})
			owners := 0
			for m, mid := range mids {
				owners += mid.Pending() - before[m]
			}
			if owners != 1 {
				t.Errorf("topic %q taken in by %d mids, want exactly 1", topic, owners)
			}
		}
	})
}
