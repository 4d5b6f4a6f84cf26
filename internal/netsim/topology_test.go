package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simtime"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T); want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q; want it to contain %q", msg, want)
		}
	}()
	fn()
}

func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  TopologyConfig
		want string
	}{
		{"zero racks", TopologyConfig{Racks: 0, HostsPerRack: 4}, "Racks > 0"},
		{"zero hosts per rack", TopologyConfig{Racks: 4, HostsPerRack: 0}, "HostsPerRack > 0"},
		{"negative racks per pod", TopologyConfig{Racks: 4, HostsPerRack: 2, RacksPerPod: -1}, "RacksPerPod"},
		{"negative latency", TopologyConfig{Racks: 1, HostsPerRack: 1, HostLatency: -time.Second}, "HostLatency"},
		{"slash in prefix", TopologyConfig{Racks: 1, HostsPerRack: 1, NamePrefix: "a/b"}, "bad host name prefix"},
		{"space in prefix", TopologyConfig{Racks: 1, HostsPerRack: 1, NamePrefix: "a b"}, "bad host name prefix"},
		{"whitespace-only prefix", TopologyConfig{Racks: 1, HostsPerRack: 1, NamePrefix: "\t"}, "bad host name prefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := simtime.NewEnv()
			env.Run(func() {
				mustPanic(t, tc.want, func() { BuildTopology(New(env), tc.cfg) })
			})
		})
	}
}

func TestTopologyDuplicateRegistrationPanics(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		n := New(env)
		cfg := TopologyConfig{Racks: 2, HostsPerRack: 2, RackUplink: Gbit}
		BuildTopology(n, cfg)
		// Rebuilding the same topology on the same network collides on
		// the interned link names.
		mustPanic(t, "duplicate link", func() { BuildTopology(n, cfg) })
	})
}

func TestTopologyNamesAndPlacement(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		n := New(env)
		topo := BuildTopology(n, TopologyConfig{
			Racks: 4, HostsPerRack: 3, RacksPerPod: 2,
			RackUplink: Gbit, PodUplink: 4 * Gbit,
		})
		if len(topo.Hosts()) != 12 {
			t.Fatalf("%d hosts, want 12", len(topo.Hosts()))
		}
		if got := topo.Names()[0]; got != "hr000n000" {
			t.Fatalf("Names()[0] = %q", got)
		}
		if got := topo.Names()[11]; got != "hr003n002" {
			t.Fatalf("Names()[11] = %q", got)
		}
		if len(topo.Names()) != 12 || topo.Names()[5] != topo.Host(5).Name {
			t.Fatalf("Names() inconsistent with Host()")
		}
		// Host 7 is rack 2 (hosts 6..8), pod 1 (racks 2..3).
		if h := topo.Host(7); h.rack != 2 || h.pod != 1 {
			t.Fatalf("host 7 placed at rack %d pod %d, want rack 2 pod 1", h.rack, h.pod)
		}
	})
}

func TestTopologyZeroLatencyLinks(t *testing.T) {
	env := simtime.NewEnv()
	var elapsed time.Duration
	env.Run(func() {
		n := New(env)
		topo := BuildTopology(n, TopologyConfig{
			Racks: 2, HostsPerRack: 1, NICRate: 100, RackUplink: 100,
			HostLatency: 0,
		})
		start := env.Now()
		topo.Host(0).Send(topo.Host(1), 50)
		elapsed = env.Now() - start
	})
	// No propagation latency: the transfer takes exactly size/rate.
	if !almostEqual(elapsed.Seconds(), 0.5, 1e-6) {
		t.Fatalf("zero-latency send took %v, want 0.5s", elapsed)
	}
}

func TestCrossRackTrafficSharesRackUplink(t *testing.T) {
	env := simtime.NewEnv()
	var e1, e2, same time.Duration
	env.Run(func() {
		n := New(env)
		// Two racks of two hosts; the rack uplink has the same capacity
		// as one NIC, so two concurrent cross-rack senders from rack 0
		// halve each other while a same-rack transfer would not.
		topo := BuildTopology(n, TopologyConfig{
			Racks: 2, HostsPerRack: 2, NICRate: 100, RackUplink: 100,
		})
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() {
			defer wg.Done()
			s := env.Now()
			topo.Host(0).Send(topo.Host(2), 100)
			e1 = env.Now() - s
		})
		env.Go(func() {
			defer wg.Done()
			s := env.Now()
			topo.Host(1).Send(topo.Host(3), 100)
			e2 = env.Now() - s
		})
		wg.Wait()
		s := env.Now()
		topo.Host(0).Send(topo.Host(1), 100)
		same = env.Now() - s
	})
	if !almostEqual(e1.Seconds(), 2.0, 1e-3) || !almostEqual(e2.Seconds(), 2.0, 1e-3) {
		t.Fatalf("cross-rack flows took %v, %v; want ~2s each (shared uplink)", e1, e2)
	}
	if !almostEqual(same.Seconds(), 1.0, 1e-3) {
		t.Fatalf("same-rack flow took %v, want ~1s (no uplink)", same)
	}
}

func TestCrossPodTrafficRidesPodUplink(t *testing.T) {
	env := simtime.NewEnv()
	var elapsed time.Duration
	env.Run(func() {
		n := New(env)
		// Pod uplink is the bottleneck at half a NIC.
		topo := BuildTopology(n, TopologyConfig{
			Racks: 2, HostsPerRack: 1, RacksPerPod: 1,
			NICRate: 100, RackUplink: 100, PodUplink: 50,
		})
		start := env.Now()
		topo.Host(0).Send(topo.Host(1), 100)
		elapsed = env.Now() - start
	})
	if !almostEqual(elapsed.Seconds(), 2.0, 1e-3) {
		t.Fatalf("cross-pod flow took %v, want 2s at the 50 B/s pod uplink", elapsed)
	}
}

func TestSmallFlowCutoffAccountsAndSleeps(t *testing.T) {
	env := simtime.NewEnv()
	var small, large time.Duration
	var flows int64
	var bytes float64
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100)
		n.SetSmallFlowCutoff(10)
		s := env.Now()
		n.Flow(10, l) // at the cutoff: closed-form path
		small = env.Now() - s
		s = env.Now()
		n.Flow(100, l) // above the cutoff: exact path
		large = env.Now() - s
		flows, bytes = n.Stats()
		if served := n.LinkServed("l"); !almostEqual(served, 110, 1e-6) {
			t.Errorf("LinkServed = %v, want 110", served)
		}
	})
	if !almostEqual(small.Seconds(), 0.1, 1e-6) {
		t.Fatalf("small flow took %v, want 0.1s", small)
	}
	if !almostEqual(large.Seconds(), 1.0, 1e-6) {
		t.Fatalf("large flow took %v, want 1s", large)
	}
	if flows != 2 || !almostEqual(bytes, 110, 1e-6) {
		t.Fatalf("Stats = %d flows / %v bytes, want 2 / 110", flows, bytes)
	}
}

func TestIsolatedFlowFastPathMatchesFairShare(t *testing.T) {
	env := simtime.NewEnv()
	var isolated, contended time.Duration
	env.Run(func() {
		n := New(env)
		a := n.AddLink("a", 100)
		b := n.AddLink("b", 50)
		c := n.AddLink("c", 100)
		// Isolated two-link flow: bottleneck capacity outright.
		s := env.Now()
		n.Flow(100, a, b)
		isolated = env.Now() - s
		// Then contended: a second flow joining link c mid-way must
		// trigger the full reshare and halve both.
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); n.Flow(100, c) })
		env.Go(func() {
			defer wg.Done()
			s := env.Now()
			n.Flow(100, c)
			contended = env.Now() - s
		})
		wg.Wait()
	})
	if !almostEqual(isolated.Seconds(), 2.0, 1e-6) {
		t.Fatalf("isolated flow took %v, want 2s at the 50 B/s bottleneck", isolated)
	}
	if !almostEqual(contended.Seconds(), 2.0, 1e-6) {
		t.Fatalf("contended flow took %v, want 2s at half the link", contended)
	}
}
