package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowTakesSizeOverRate(t *testing.T) {
	env := simtime.NewEnv()
	var elapsed time.Duration
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100) // 100 B/s
		start := env.Now()
		n.Flow(50, l)
		elapsed = env.Now() - start
	})
	if !almostEqual(elapsed.Seconds(), 0.5, 1e-6) {
		t.Fatalf("elapsed = %v, want 0.5s", elapsed)
	}
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	env := simtime.NewEnv()
	var e1, e2 time.Duration
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100)
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); s := env.Now(); n.Flow(100, l); e1 = env.Now() - s })
		env.Go(func() { defer wg.Done(); s := env.Now(); n.Flow(100, l); e2 = env.Now() - s })
		wg.Wait()
	})
	// Both flows share the link at 50 B/s each, so both take 2s.
	if !almostEqual(e1.Seconds(), 2.0, 1e-6) || !almostEqual(e2.Seconds(), 2.0, 1e-6) {
		t.Fatalf("elapsed = %v, %v; want 2s each", e1, e2)
	}
}

func TestShortFlowFreesBandwidthForLongFlow(t *testing.T) {
	env := simtime.NewEnv()
	var long time.Duration
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100)
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); n.Flow(50, l) }) // shares 50 B/s for 1s
		env.Go(func() { defer wg.Done(); s := env.Now(); n.Flow(150, l); long = env.Now() - s })
		wg.Wait()
	})
	// Long flow: 1s at 50 B/s (50 B), then 1s at 100 B/s (100 B) = 2s total.
	if !almostEqual(long.Seconds(), 2.0, 1e-6) {
		t.Fatalf("long flow took %v, want 2s", long)
	}
}

func TestMaxMinBottleneckAcrossTwoLinks(t *testing.T) {
	// Flow 1 crosses links A (cap 100) and B (cap 30); flow 2 crosses only A.
	// Max-min: flow 1 is bottlenecked at B = 30; flow 2 gets 70 on A.
	env := simtime.NewEnv()
	var e1, e2 time.Duration
	env.Run(func() {
		n := New(env)
		a := n.AddLink("a", 100)
		b := n.AddLink("b", 30)
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); s := env.Now(); n.Flow(30, a, b); e1 = env.Now() - s })
		env.Go(func() { defer wg.Done(); s := env.Now(); n.Flow(70, a); e2 = env.Now() - s })
		wg.Wait()
	})
	if !almostEqual(e1.Seconds(), 1.0, 1e-3) {
		t.Errorf("flow over bottleneck took %v, want 1s", e1)
	}
	if !almostEqual(e2.Seconds(), 1.0, 1e-3) {
		t.Errorf("flow on free link took %v, want 1s", e2)
	}
}

func TestSetRateMidFlow(t *testing.T) {
	env := simtime.NewEnv()
	var elapsed time.Duration
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100)
		wg := env.NewWaitGroup()
		wg.Add(1)
		env.Go(func() { defer wg.Done(); s := env.Now(); n.Flow(200, l); elapsed = env.Now() - s })
		env.Go(func() {
			env.Sleep(time.Second) // after 100 B served
			n.SetRate("l", 10)     // limplock!
		})
		wg.Wait()
	})
	// 100 B at 100 B/s (1s) + 100 B at 10 B/s (10s) = 11s.
	if !almostEqual(elapsed.Seconds(), 11.0, 1e-3) {
		t.Fatalf("elapsed = %v, want 11s", elapsed)
	}
}

func TestZeroAndEmptyFlowsCompleteInstantly(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100)
		n.Flow(0, l)
		n.Flow(100)
		if env.Now() != 0 {
			t.Errorf("time advanced to %v for no-op flows", env.Now())
		}
	})
}

func TestHostSendContendsOnSenderTx(t *testing.T) {
	env := simtime.NewEnv()
	var e1, e2 time.Duration
	env.Run(func() {
		n := New(env)
		a := n.NewHost("a", 100, 1000)
		b := n.NewHost("b", 100, 1000)
		c := n.NewHost("c", 100, 1000)
		a.Latency = 0
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); s := env.Now(); a.Send(b, 100); e1 = env.Now() - s })
		env.Go(func() { defer wg.Done(); s := env.Now(); a.Send(c, 100); e2 = env.Now() - s })
		wg.Wait()
	})
	// Both flows share a.tx at 50 B/s: 2s each.
	if !almostEqual(e1.Seconds(), 2.0, 1e-3) || !almostEqual(e2.Seconds(), 2.0, 1e-3) {
		t.Fatalf("sends took %v, %v; want 2s each", e1, e2)
	}
}

func TestHostLoopbackIsFree(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		n := New(env)
		a := n.NewHost("a", 100, 1000)
		a.Send(a, 1e12)
		if env.Now() != 0 {
			t.Errorf("loopback advanced time to %v", env.Now())
		}
	})
}

func TestDiskSharedBetweenReadAndWrite(t *testing.T) {
	env := simtime.NewEnv()
	var e1, e2 time.Duration
	env.Run(func() {
		n := New(env)
		a := n.NewHost("a", 1e9, 100)
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); s := env.Now(); a.DiskRead(100); e1 = env.Now() - s })
		env.Go(func() { defer wg.Done(); s := env.Now(); a.DiskWrite(100); e2 = env.Now() - s })
		wg.Wait()
	})
	if !almostEqual(e1.Seconds(), 2.0, 1e-3) || !almostEqual(e2.Seconds(), 2.0, 1e-3) {
		t.Fatalf("disk ops took %v, %v; want 2s each", e1, e2)
	}
}

func TestManyFlowsThroughputConservation(t *testing.T) {
	// N flows through one link: total service rate must equal capacity, so
	// N flows of size S take N*S/rate regardless of arrival interleaving.
	env := simtime.NewEnv()
	var end time.Duration
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 1000)
		wg := env.NewWaitGroup()
		for i := 0; i < 50; i++ {
			wg.Add(1)
			env.Go(func() { defer wg.Done(); n.Flow(100, l) })
		}
		wg.Wait()
		end = env.Now()
	})
	if !almostEqual(end.Seconds(), 5.0, 1e-3) {
		t.Fatalf("50 flows finished at %v, want 5s", end)
	}
}

func TestStatsCountServedBytes(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 1000)
		wg := env.NewWaitGroup()
		for i := 0; i < 3; i++ {
			wg.Add(1)
			env.Go(func() { defer wg.Done(); n.Flow(10, l) })
		}
		wg.Wait()
		flows, bytes := n.Stats()
		if flows != 3 || !almostEqual(bytes, 30, 1e-9) {
			t.Fatalf("stats = (%d, %v), want (3, 30)", flows, bytes)
		}
	})
}

func TestLimplockSlowsWholeCluster(t *testing.T) {
	// Eight hosts all sending to each other; downgrade one NIC and verify
	// flows touching it slow down ~10x while others are unaffected.
	env := simtime.NewEnv()
	var viaFaulty, healthy time.Duration
	env.Run(func() {
		n := New(env)
		hosts := make([]*Host, 4)
		for i, name := range []string{"a", "b", "c", "d"} {
			hosts[i] = n.NewHost(name, 100, 1e9)
			hosts[i].Latency = 0
		}
		hosts[1].SetNICRate(10) // host b limps
		wg := env.NewWaitGroup()
		wg.Add(2)
		env.Go(func() { defer wg.Done(); s := env.Now(); hosts[0].Send(hosts[1], 100); viaFaulty = env.Now() - s })
		env.Go(func() { defer wg.Done(); s := env.Now(); hosts[2].Send(hosts[3], 100); healthy = env.Now() - s })
		wg.Wait()
	})
	if !almostEqual(viaFaulty.Seconds(), 10.0, 1e-3) {
		t.Errorf("flow via faulty NIC took %v, want 10s", viaFaulty)
	}
	if !almostEqual(healthy.Seconds(), 1.0, 1e-3) {
		t.Errorf("healthy flow took %v, want 1s", healthy)
	}
}

// TestQuickByteConservation: regardless of arrival pattern, total served
// bytes equal total offered bytes, and completion of N equal flows through
// one link takes exactly N*S/rate of virtual time when arrivals are
// simultaneous.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := simtime.NewEnv()
		ok := true
		env.Run(func() {
			n := New(env)
			l := n.AddLink("l", 1000)
			total := 0.0
			wg := env.NewWaitGroup()
			for i := 0; i < 1+rng.Intn(10); i++ {
				size := float64(1 + rng.Intn(500))
				total += size
				delay := time.Duration(rng.Intn(100)) * time.Millisecond
				wg.Add(1)
				env.Go(func() {
					defer wg.Done()
					env.Sleep(delay)
					n.Flow(size, l)
				})
			}
			wg.Wait()
			flows, bytes := n.Stats()
			if flows == 0 || bytes < total-1e-6 || bytes > total+1e-6 {
				ok = false
			}
			if served := n.LinkServed("l"); served < total-1e-3 || served > total+1e-3 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkServedTracksProgressMidFlow(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		n := New(env)
		l := n.AddLink("l", 100)
		env.Go(func() { n.Flow(1000, l) })
		env.Sleep(2 * time.Second)
		served := n.LinkServed("l")
		if served < 199 || served > 201 {
			t.Fatalf("served = %v after 2s at 100 B/s, want ~200", served)
		}
		if n.LinkServed("missing") != 0 {
			t.Fatal("unknown link should serve 0")
		}
	})
}
