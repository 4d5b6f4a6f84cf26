package agent

import (
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

func TestLeaseExpiresWithoutRenewal(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)

		b.Publish(ControlTopic, Install{
			QueryID: "Q", Programs: []*advice.Program{q1Program()}, TTL: 3 * time.Second,
		})
		if !a.Installed("Q") || !tp.Enabled() {
			t.Fatal("query not installed")
		}
		if dl := leaseExpiry(a, "Q"); dl != 3*time.Second {
			t.Fatalf("lease expiry = %v, want 3s", dl)
		}
		// The report loop flushes each second; the third flush lands at
		// the lease deadline and sheds the query.
		env.Sleep(3500 * time.Millisecond)
		if a.Installed("Q") {
			t.Fatal("query survived an expired lease")
		}
		if tp.Enabled() {
			t.Fatal("expired query's advice still woven")
		}
		if got := a.Stats().LeasesExpired; got != 1 {
			t.Fatalf("LeasesExpired = %d, want 1", got)
		}
	})
}

func TestRenewKeepsLeaseAlive(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)

		b.Publish(ControlTopic, Install{
			QueryID: "Q", Programs: []*advice.Program{q1Program()}, TTL: 3 * time.Second,
		})
		// Renew (TTL 0 keeps the installed duration) every 2 virtual
		// seconds: the query outlives several would-be expiries.
		for i := 0; i < 4; i++ {
			env.Sleep(2 * time.Second)
			b.Publish(ControlTopic, Renew{QueryIDs: []string{"Q"}})
		}
		env.Sleep(2 * time.Second)
		if !a.Installed("Q") {
			t.Fatal("renewed query expired")
		}
		// Expected deadline: last renewal at t=8s + the installed 3s TTL.
		if dl := leaseExpiry(a, "Q"); dl != 11*time.Second {
			t.Fatalf("lease expiry = %v, want 11s", dl)
		}
		// Stop renewing; the lease lapses.
		env.Sleep(4 * time.Second)
		if a.Installed("Q") {
			t.Fatal("query survived after renewals stopped")
		}
	})
}

func TestRenewWithExplicitTTLRetimes(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Hour) // no flushes during the test

		// Installed immortal: no expiry until a renewal assigns a TTL.
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		b.Publish(ControlTopic, Renew{QueryIDs: []string{"Q"}})
		if dl := leaseExpiry(a, "Q"); dl != 0 {
			t.Fatalf("immortal query gained a deadline: %v", dl)
		}
		b.Publish(ControlTopic, Renew{QueryIDs: []string{"Q"}, TTL: 5 * time.Second})
		if dl := leaseExpiry(a, "Q"); dl != 5*time.Second {
			t.Fatalf("lease expiry = %v, want 5s", dl)
		}
		// Unknown query IDs in a renewal are ignored.
		b.Publish(ControlTopic, Renew{QueryIDs: []string{"nope"}, TTL: time.Second})
	})
}

// TestRenewPastEarliestDeadlineExpiresTheNext: a flush looks at the
// leases only once the earliest deadline has come, so a renewal that moves
// the earliest deadline later hands that role to the next one. A (2 s)
// is renewed at 1.5 s for 4 s more; B (3 s) must still lapse at the 3 s
// flush, and A at the first flush after 5.5 s, not before.
func TestRenewPastEarliestDeadlineExpiresTheNext(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		for id, ttl := range map[string]time.Duration{"A": 2 * time.Second, "B": 3 * time.Second} {
			prog := q1Program()
			prog.QueryID = id
			b.Publish(ControlTopic, Install{QueryID: id, Programs: []*advice.Program{prog}, TTL: ttl})
		}
		env.Sleep(1500 * time.Millisecond)
		b.Publish(ControlTopic, Renew{QueryIDs: []string{"A"}, TTL: 4 * time.Second})
		for _, step := range []struct {
			at   time.Duration
			a, b bool
		}{
			{2500 * time.Millisecond, true, true},
			{3500 * time.Millisecond, true, false},
			{5500 * time.Millisecond, true, false},
			{6500 * time.Millisecond, false, false},
		} {
			env.Sleep(step.at - env.Now())
			if a.Installed("A") != step.a || a.Installed("B") != step.b {
				t.Fatalf("at %v: A installed %v, B installed %v; want %v, %v",
					step.at, a.Installed("A"), a.Installed("B"), step.a, step.b)
			}
		}
		if got := a.Stats().LeasesExpired; got != 2 {
			t.Fatalf("LeasesExpired = %d, want 2", got)
		}
	})
}

func TestImmortalInstallNeverExpires(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Second)
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
		env.Sleep(time.Hour)
		if !a.Installed("Q") {
			t.Fatal("immortal query expired")
		}
	})
}

func TestQuarantinePublishesNoticeAndUnweaves(t *testing.T) {
	env := simtime.NewEnv()
	var notices []Quarantine
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Hour)
		b.Subscribe(QuarantineTopic, func(msg any) {
			notices = append(notices, msg.(Quarantine))
		})

		prog := q1Program()
		prog.Safety = advice.Safety{FaultLimit: 2}
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{prog}})

		// Make every fire of this program panic, as a buggy advice would.
		reg.SetFailpoint(func(a tracepoint.Advice, _ tuple.Tuple) {
			if a.(*advice.Advice).Prog == prog {
				panic("injected advice bug")
			}
		})

		for i := 0; i < 5; i++ {
			tp.Here(request("h1"), 1) // must not panic the caller
		}
		if !prog.Quarantined() {
			t.Fatal("breaker did not trip")
		}
		if tp.Enabled() {
			t.Fatal("quarantined advice still woven")
		}
		if got := a.Stats().Quarantines; got != 1 {
			t.Fatalf("Stats.Quarantines = %d, want 1", got)
		}
		// Re-delivering the install (e.g. a frontend reconnect replay)
		// must not re-weave the quarantined program.
		b.Publish(ControlTopic, Uninstall{QueryID: "Q"})
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{prog}})
		if tp.Enabled() {
			t.Fatal("quarantined program re-woven by install replay")
		}
	})
	if len(notices) != 1 {
		t.Fatalf("quarantine notices = %d, want 1", len(notices))
	}
	n := notices[0]
	if n.QueryID != "Q" || n.Tracepoint != "Tp" || n.Host != "h1" || n.Reason == "" {
		t.Fatalf("notice = %+v", n)
	}
}

func TestReportCarriesDedupedDropRecords(t *testing.T) {
	env := simtime.NewEnv()
	var reports []Report
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		reg.Define("Tp", "v")
		a := New(env, info("h1"), reg, b, time.Hour)
		b.Subscribe(ResultsTopic, func(msg any) { reports = append(reports, resultReports(msg)...) })
		b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})

		prog := q1Program()
		// The same tombstone observed at several crossings reports once.
		recs := []baggage.DropRecord{{Slot: "Q.a", Key: "k2"}, {Slot: "Q.a", Key: "k1"}}
		a.NoteBaggageDrops(prog, recs)
		a.NoteBaggageDrops(prog, recs[:1])
		a.Flush()
		// Drained with the interval: the next flush reports nothing.
		a.Flush()
	})
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1 (drops alone must flush)", len(reports))
	}
	drops := reports[0].Drops
	if len(drops) != 2 || drops[0].Key != "k1" || drops[1].Key != "k2" {
		t.Fatalf("drops = %v, want deduped sorted [k1 k2]", drops)
	}
}

// leaseExpiry reads the query's lease expiry on the agent's clock: 0 when
// the query is not installed or has no lease.
func leaseExpiry(a *Agent, queryID string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if qs, ok := a.queries[queryID]; ok {
		return qs.lease.Expiry
	}
	return 0
}
