package core

import (
	"cmp"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

func TestFairShare(t *testing.T) {
	cases := []struct {
		total, share, want int
	}{
		{1000, 1, 1000},  // single tenant: whole budget
		{1000, 0, 1000},  // unset share: whole budget
		{1000, 4, 250},   // even split
		{1000, 3, 333},   // floor division
		{10, 100, 1},     // oversubscribed: floor at 1, never 0
		{1, 2, 1},        // tiny budget still admits progress
		{-1, 4, -1},      // explicit unlimited passes through
		{0, 4, 0},        // unresolved default passes through (caller resolves)
		{1000, -3, 1000}, // nonsense share treated as no split
	}
	for _, c := range cases {
		if got := FairShare(c.total, c.share); got != c.want {
			t.Errorf("FairShare(%d, %d) = %d, want %d", c.total, c.share, got, c.want)
		}
	}
}

// TestFairLimitResolvesDefaults: applyFairShare resolves a zero limit to
// its default before splitting it. A single tenant leaves the field as it
// is, for the agent to resolve the same way (zero selects def).
func TestFairLimitResolvesDefaults(t *testing.T) {
	cases := []struct {
		v, def, share, want int
	}{
		{0, 16384, 4, 4096}, // zero resolves to def, then splits
		{100, 16384, 4, 25}, // explicit value splits
		{-1, 16384, 4, -1},  // unlimited respected
		{0, 16384, 1, 16384},
	}
	for _, c := range cases {
		pt := &PivotTracing{share: c.share}
		limits := advice.Limits{MaxGroups: c.v}
		pt.applyFairShare(&limits, &baggage.Budget{})
		if got := cmp.Or(limits.MaxGroups, c.def); got != c.want {
			t.Errorf("applyFairShare(MaxGroups %d, share %d) resolves to %d, want %d", c.v, c.share, got, c.want)
		}
	}
}

// TestTenantInstallCarriesQuotaSplit: a tenant frontend with a declared
// share stamps its installs with the tenant and fair-shared limits —
// visible on the wire, not re-derived per agent.
func TestTenantInstallCarriesQuotaSplit(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	reg.Define("Tp", "v")

	var installs []agent.Install
	b.Subscribe(agent.ControlTopic, func(msg any) {
		if m, ok := msg.(agent.Install); ok {
			installs = append(installs, m)
		}
	})

	pt := NewWithOptions(b, reg, Options{Tenant: "alice", Share: 4})
	h, err := pt.Install(`From e In Tp GroupBy e.host Select e.host, COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(h.Name, "alice.") {
		t.Errorf("auto-name %q not tenant-prefixed", h.Name)
	}
	if len(installs) != 1 {
		t.Fatalf("installs published = %d, want 1", len(installs))
	}
	in := installs[0]
	if in.Tenant != "alice" {
		t.Errorf("install tenant = %q, want alice", in.Tenant)
	}
	if in.Limits.MaxGroups != advice.DefaultMaxGroups/4 || in.Limits.MaxRaws != advice.DefaultMaxRaws/4 {
		t.Errorf("install limits not fair-shared: %+v", in.Limits)
	}
	// The compiled baggage budget is split too.
	budget := h.Plan.Programs[0].Safety.Budget
	if budget.MaxBytes != baggage.DefaultMaxBytes/4 || budget.MaxTuples != baggage.DefaultMaxTuples/4 {
		t.Errorf("compiled budget not fair-shared: %+v", budget)
	}
	// The replayed install (late-joining agents) carries the same stamps.
	replay := pt.Installs()
	if len(replay) != 1 || replay[0].Tenant != "alice" || replay[0].Limits != in.Limits {
		t.Errorf("replayed install lost tenancy stamps: %+v", replay)
	}
}

// TestTenantIsolation: two tenant frontends over one agent fleet each see
// exactly their own query's results, even though both ride the shared
// results topic in a flat (tree-less) deployment.
func TestTenantIsolation(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		b := bus.New()
		reg := tracepoint.NewRegistry()
		tp := reg.Define("Tp", "v")
		ag := agent.New(env, tracepoint.ProcInfo{Host: "h1", ProcName: "svc", ProcID: 1}, reg, b, time.Second)

		alice := NewWithOptions(b, reg, Options{Tenant: "alice", Share: 2})
		bob := NewWithOptions(b, reg, Options{Tenant: "bob", Share: 2})

		ha, err := alice.Install(`From e In Tp GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := bob.Install(`From e In Tp Where e.v > 100 GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Fatal(err)
		}

		req := func() context.Context {
			return baggage.NewContext(tracepoint.WithProc(context.Background(),
				tracepoint.ProcInfo{Host: "h1", ProcName: "svc", ProcID: 1}), baggage.New())
		}
		for i := 0; i < 5; i++ {
			tp.Here(req(), 10)
		}
		tp.Here(req(), 200)
		ag.Flush()

		aRows, bRows := ha.Rows(), hb.Rows()
		if len(aRows) != 1 || aRows[0][1].Int() != 6 {
			t.Errorf("alice rows = %v, want one group with count 6", aRows)
		}
		if len(bRows) != 1 || bRows[0][1].Int() != 1 {
			t.Errorf("bob rows = %v, want one group with count 1", bRows)
		}
		// Cross-check: the namespaces really are disjoint — alice can take
		// a name bob already holds, because each frontend owns its own
		// installed-set.
		if _, err := alice.InstallNamed(hb.Name, `From e In Tp GroupBy e.host Select e.host, COUNT`, plan.Optimized); err != nil {
			t.Errorf("alice reusing bob's name must succeed (disjoint namespaces): %v", err)
		}
	})
}

// TestTenantUsageFeedsStatus: TenantUsage frames on the health topic
// aggregate into Status.Tenants on the primary frontend, and the tenants
// table renders.
func TestTenantUsageFeedsStatus(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	pt := New(b, reg)

	b.Publish(agent.HealthTopic, agent.TenantUsage{
		Host: "h1", ProcName: "svc", Time: time.Second,
		Usage: []agent.TenantQuota{
			{Tenant: "alice", Queries: 2, Tuples: 10},
			{Tenant: "bob", Queries: 1, Tuples: 3},
		},
	})
	b.Publish(agent.HealthTopic, agent.TenantUsage{
		Host: "h2", ProcName: "svc", Time: time.Second,
		Usage: []agent.TenantQuota{
			{Tenant: "alice", Queries: 2, Tuples: 7},
		},
	})

	s := pt.StatusAt(2 * time.Second)
	if len(s.Tenants) != 2 {
		t.Fatalf("tenants = %+v, want alice and bob", s.Tenants)
	}
	a, bb := s.Tenants[0], s.Tenants[1]
	if a.Tenant != "alice" || a.Agents != 2 || a.Queries != 2 || a.Tuples != 17 {
		t.Errorf("alice aggregation wrong: %+v", a)
	}
	if bb.Tenant != "bob" || bb.Agents != 1 || bb.Queries != 1 || bb.Tuples != 3 {
		t.Errorf("bob aggregation wrong: %+v", bb)
	}
	text := RenderStatus(s)
	if !strings.Contains(text, "tenants (2):") || !strings.Contains(text, "alice") {
		t.Errorf("rendered status missing tenants table:\n%s", text)
	}
}

// TestTenantFrontendSubscriptionFootprint: a tenant frontend must not
// subscribe to the fleet-scaled topics (health, status, trace) — that is
// what keeps its inbound load flat as agents grow.
func TestTenantFrontendSubscriptionFootprint(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	ten := NewWithOptions(b, reg, Options{Tenant: "alice", Share: 2})

	before := ten.FramesIn()
	b.Publish(agent.HealthTopic, agent.Heartbeat{Host: "h1", ProcName: "svc"})
	b.Publish(agent.TraceTopic, agent.SpanBatch{})
	b.Publish(agent.StatusRequestTopic, agent.StatusRequest{ID: "probe"})
	if got := ten.StatusAt(time.Second); len(got.Agents) != 0 {
		t.Errorf("tenant frontend tracked fleet health: %+v", got.Agents)
	}
	if ten.FramesIn() != before {
		t.Errorf("health/trace/status traffic counted as result frames")
	}

	b.Publish(agent.TenantResultsTopic("alice"), agent.ReportBatch{Reports: []agent.Report{{QueryID: "nope"}}})
	b.Publish(agent.ResultsTopic, agent.ReportBatch{})
	if got := ten.FramesIn(); got != before+2 {
		t.Errorf("FramesIn = %d, want %d", got, before+2)
	}
}

// TestTenantBudgetsScopedPerQuery: a tenant's queries are named
// "<tenant>.Q<n>", and each keeps a baggage budget of its own. Two
// happened-before joins of one tenant pack into the same requests under a
// 4-tuple budget: the narrow one (3 groups) loses nothing to its sibling's
// packs, and the wide one (6 groups) reports 4 and accounts the 2 it lost
// as dropped, flagged partial.
func TestTenantBudgetsScopedPerQuery(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	src := reg.Define("Src", "key", "val")
	sink := reg.Define("Sink")
	proc := tracepoint.ProcInfo{Host: "h1", ProcName: "svc", ProcID: 1}
	ag := agent.New(nil, proc, reg, b, time.Second)
	defer ag.Close()

	acme := NewWithOptions(b, reg, Options{Tenant: "acme"})
	opts := plan.Options{Optimize: true, Safety: advice.Safety{Budget: baggage.Budget{MaxTuples: 4}}}
	install := func(text string) *Installed {
		h, err := acme.InstallNamed("", text, opts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	narrow := install(`From b In Sink Join a In Src On a -> b Where a.val < 3 GroupBy a.key Select a.key, SUM(a.val)`)
	wide := install(`From b In Sink Join a In Src On a -> b GroupBy a.key Select a.key, SUM(a.val)`)
	if !strings.HasPrefix(narrow.Name, "acme.") || !strings.HasPrefix(wide.Name, "acme.") {
		t.Fatalf("names %q, %q: want tenant-prefixed", narrow.Name, wide.Name)
	}

	ctx := baggage.NewContext(tracepoint.WithProc(context.Background(), proc), baggage.New())
	for i := 0; i < 6; i++ {
		src.Here(ctx, string(rune('a'+i)), i)
	}
	sink.Here(ctx)
	ag.Flush()

	if rows, dropped := len(narrow.Rows()), narrow.DroppedGroups(); rows != 3 || dropped != 0 || narrow.Partial() {
		t.Errorf("%s: %d rows, %d dropped, partial %v; want 3 rows, none dropped, exact",
			narrow.Name, rows, dropped, narrow.Partial())
	}
	if rows, dropped := len(wide.Rows()), wide.DroppedGroups(); rows != 4 || dropped != 2 || !wide.Partial() {
		t.Errorf("%s: %d rows, %d dropped, partial %v; want 4 rows, 2 dropped, partial",
			wide.Name, rows, dropped, wide.Partial())
	}
}
