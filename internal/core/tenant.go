package core

import (
	"cmp"
	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/tracepoint"
)

// Multi-tenant control plane: many concurrent frontends share one bus and
// one agent fleet, each owning a disjoint query set. A tenant frontend
// prefixes its query names with its tenant ID (so namespaces can never
// collide), stamps its installs with the tenant and the fleet-wide share
// divisor (so agents and combiners can attribute and route), and
// subscribes only to its own results topic plus the shared fallback — not
// to fleet health or status traffic — so its inbound frame rate tracks its
// own query activity, not cluster size. Budgets are fair-share split: with
// N tenants declared, each install's accumulator limits and baggage budget
// are the resolved single-tenant defaults divided by N, so no tenant can
// starve the fleet past its slice.

// Options configures a frontend's tenancy.
type Options struct {
	// Tenant names this frontend's tenant; "" is the primary (fleet
	// operator) frontend with the classic single-frontend behavior.
	Tenant string
	// Share is the fair-share divisor applied to every install's
	// accumulator limits and baggage budget — normally the number of
	// tenant frontends sharing the agent fleet. 0 or 1 leaves budgets
	// whole.
	Share int
}

// NewWithOptions creates a frontend with explicit tenancy options.
// NewWithOptions(b, reg, Options{}) is New(b, reg).
func NewWithOptions(b *bus.Bus, reg *tracepoint.Registry, o Options) *PivotTracing {
	pt := newFrontend(b, reg)
	pt.tenant = o.Tenant
	pt.share = o.Share
	if o.Tenant == "" {
		// Primary frontend: full fleet surface.
		pt.resultsSub = b.Subscribe(agent.ResultsTopic, pt.onReport)
		pt.healthSub = b.Subscribe(agent.HealthTopic, pt.onHeartbeat)
		pt.statusSub = b.Subscribe(agent.StatusRequestTopic, pt.onStatusRequest)
		pt.quarantineSub = b.Subscribe(agent.QuarantineTopic, pt.onQuarantine)
		pt.traceSub = b.Subscribe(agent.TraceTopic, pt.onTrace)
		return pt
	}
	// Tenant frontend: its own results topic (where the delivering
	// combiner tier publishes its queries' frames), the shared results
	// topic (flat deployments with no tree publish everything there), and
	// quarantine notices. Deliberately NOT health/status/trace: those
	// scale with fleet size and belong to the primary.
	pt.tenantSub = b.Subscribe(agent.TenantResultsTopic(o.Tenant), pt.onReport)
	pt.resultsSub = b.Subscribe(agent.ResultsTopic, pt.onReport)
	pt.quarantineSub = b.Subscribe(agent.QuarantineTopic, pt.onQuarantine)
	return pt
}

// FramesIn returns how many result frames (ReportBatch bus messages) this
// frontend has received, including frames for queries it does not own. It is the frontend's inbound-load meter: the
// multi-tenant-storm scenario asserts it stays flat per frontend as the
// agent fleet grows.
func (pt *PivotTracing) FramesIn() int64 { return pt.framesIn.Load() }

// FairShare splits a per-query budget across share tenants: the result is
// total/share, floored at 1 so a huge fleet of tenants still makes
// progress. Non-positive totals (unlimited / unset sentinels) and share
// <= 1 pass through unchanged.
func FairShare(total, share int) int {
	if share <= 1 || total <= 0 {
		return total
	}
	if s := total / share; s > 1 {
		return s
	}
	return 1
}

// applyFairShare scales an install's accumulator limits and baggage
// budget to this frontend's tenant slice. Explicit negative (unlimited)
// settings are respected; zero (default) fields are resolved to their
// single-tenant defaults first so the split is exact and visible on the
// wire rather than re-derived per agent.
func (pt *PivotTracing) applyFairShare(limits *advice.Limits, budget *baggage.Budget) {
	if pt.share <= 1 {
		return
	}
	limits.MaxGroups = FairShare(cmp.Or(limits.MaxGroups, advice.DefaultMaxGroups), pt.share)
	limits.MaxRaws = FairShare(cmp.Or(limits.MaxRaws, advice.DefaultMaxRaws), pt.share)
	budget.MaxBytes = FairShare(cmp.Or(budget.MaxBytes, baggage.DefaultMaxBytes), pt.share)
	budget.MaxTuples = FairShare(cmp.Or(budget.MaxTuples, baggage.DefaultMaxTuples), pt.share)
}

// TenantStatus is one tenant's fleet-wide quota usage, aggregated from
// the per-agent TenantUsage frames that ride the health topic.
type TenantStatus struct {
	Tenant  string
	Agents  int   // agents reporting usage for this tenant
	Queries int   // installed queries (max across agents = distinct set)
	Tuples  int64 // tuples emitted for this tenant, summed across agents
}
