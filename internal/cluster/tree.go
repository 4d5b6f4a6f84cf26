package cluster

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/combiner"
	"repro/internal/core"
)

// This file wires the hierarchical-aggregation and multi-tenant layers
// over a simulated cluster: the combiner tiers between agents and
// frontends (agents → partitioned mid combiners → root combiner →
// frontends), the rule that gives an agent its report topic, and
// additional tenant frontends sharing the deployment's bus and master
// registry.

// newTiers stands up cfg.Combiners mid combiners, each owning a disjoint
// share of the partition topics (several partitions per combiner keeps
// rendezvous rebalancing granular), under one root. The root has no
// upstream tier, so it is the one that delivers to frontends and routes
// each tenant's queries to that tenant's topic. Flat deployments get no
// tiers.
func (c *Cluster) newTiers() {
	if c.cfg.Combiners <= 0 {
		return
	}
	members := make([]string, c.cfg.Combiners)
	for i := range members {
		members[i] = fmt.Sprintf("combiner-mid-%d", i)
	}
	c.partitions = 4 * len(members)
	topics := combiner.PartitionTopics(c.partitions)
	for _, name := range members {
		c.combiners = append(c.combiners, combiner.New(c.Env, "combiners", name, c.Bus, combiner.Config{
			Interval:  c.cfg.ReportInterval,
			Subscribe: combiner.Owned(topics, members, name),
			Upstream:  combiner.RootTopic,
		}))
	}
	c.combiners = append(c.combiners, combiner.New(c.Env, "combiners", "combiner-root", c.Bus, combiner.Config{
		Interval:  c.cfg.ReportInterval,
		Subscribe: []string{combiner.RootTopic},
	}))
}

// reportTopic is where the agent of host/proc publishes its reports: its
// hash partition's topic under a tree, so no single process subscribes to
// every agent's traffic, and the frontends' own topic without one.
func (c *Cluster) reportTopic(host, proc string) string {
	if c.partitions == 0 {
		return agent.ResultsTopic
	}
	return combiner.PartitionTopic(combiner.Partition(host, proc, c.partitions), c.partitions)
}

// NewTenantFrontend creates an additional frontend for the named tenant
// on the cluster's bus, sharing the master tracepoint registry. share is
// the fair-share divisor applied to the tenant's install budgets
// (normally the planned tenant count). The cluster renews the tenant's
// leases alongside the primary's, and processes started later replay the
// tenant's installs like the primary's.
func (c *Cluster) NewTenantFrontend(tenant string, share int) *core.PivotTracing {
	pt := core.NewWithOptions(c.Bus, c.PT.Registry(), core.Options{Tenant: tenant, Share: share})
	c.mu.Lock()
	c.tenants = append(c.tenants, pt)
	c.mu.Unlock()
	return pt
}

// TenantFrontends returns the live tenant frontends in creation order.
func (c *Cluster) TenantFrontends() []*core.PivotTracing {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*core.PivotTracing(nil), c.tenants...)
}

// DropTenantFrontend disconnects a tenant frontend: it stops receiving
// results and the cluster stops renewing its leases, so agents shed its
// queries at lease expiry — the tenant-death story.
func (c *Cluster) DropTenantFrontend(pt *core.PivotTracing) {
	c.mu.Lock()
	for i, t := range c.tenants {
		if t == pt {
			c.tenants = append(c.tenants[:i], c.tenants[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	pt.Close()
}

// RenewLeases renews the primary's and every tenant frontend's query
// leases. The cluster's renewal loop calls this on the virtual clock.
func (c *Cluster) RenewLeases() {
	c.PT.RenewLeases()
	for _, t := range c.TenantFrontends() {
		t.RenewLeases()
	}
}
