package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/telemetry"
)

// This file is the frontend's introspection surface: the answer to "is
// Pivot Tracing itself healthy and cheap?". The frontend tracks every
// agent's heartbeats (published on agent.HealthTopic at each flush) and
// judges staleness against the agent's own reporting interval; per-query
// progress and cost come from the install handles; everything else is the
// telemetry registry. Status is served in-process via Status/StatusText
// and over the bus via agent.StatusRequestTopic (see cmd/ptstat).

// StaleAfterIntervals is how many missed reporting intervals mark an
// agent unhealthy.
const StaleAfterIntervals = 3

// agentHealth is the frontend's record of one agent, keyed by
// [2]string{host, proc}.
type agentHealth struct {
	hb    agent.Heartbeat
	usage []agent.TenantQuota // latest per-tenant quota usage, if any
}

// AgentHealth is one agent's health as judged by the frontend.
type AgentHealth struct {
	Host     string
	ProcName string
	Interval time.Duration
	Age      time.Duration // now - last heartbeat time
	Healthy  bool          // Age <= StaleAfterIntervals * Interval
	Queries  int
	Stats    agent.Stats
}

// QueryStatus is one installed query's progress and cost.
type QueryStatus struct {
	Name          string
	Rows          int           // globally aggregated rows so far
	Reports       int64         // agent reports merged
	FirstResult   time.Duration // install→first-report latency; -1 if none yet
	Invocations   int64         // summed over the query's advice programs
	TuplesEmitted int64
	Lease         time.Duration // install TTL agents enforce; 0 = immortal
	DroppedGroups int           // baggage groups evicted by the query's budget
	Quarantines   int           // circuit-breaker notices received
}

// Status is a point-in-time view of the tracer's own health.
type Status struct {
	Now       time.Duration
	Agents    []AgentHealth
	Queries   []QueryStatus
	Tenants   []TenantStatus // fleet-wide per-tenant quota usage
	Telemetry telemetry.Snapshot
}

// onHeartbeat records an agent's liveness beacon; TenantUsage frames ride
// the same topic and update the agent's per-tenant quota snapshot.
func (pt *PivotTracing) onHeartbeat(msg any) {
	switch m := msg.(type) {
	case agent.Heartbeat:
		pt.mu.Lock()
		pt.agentRecLocked(m.Host, m.ProcName).hb = m
		pt.mu.Unlock()
	case agent.TenantUsage:
		pt.mu.Lock()
		pt.agentRecLocked(m.Host, m.ProcName).usage = m.Usage
		pt.mu.Unlock()
	}
}

func (pt *PivotTracing) agentRecLocked(host, proc string) *agentHealth {
	key := [2]string{host, proc}
	rec, ok := pt.agents[key]
	if !ok {
		rec = &agentHealth{}
		pt.agents[key] = rec
	}
	return rec
}

// onStatusRequest answers a bus status query with the rendered status.
func (pt *PivotTracing) onStatusRequest(msg any) {
	req, ok := msg.(agent.StatusRequest)
	if !ok {
		return
	}
	pt.bus.Publish(agent.StatusResponseTopic, agent.StatusResponse{
		ID:   req.ID,
		Text: pt.StatusText(),
	})
}

// Status reports health against wall-clock time. Deployments on a
// virtual clock (simulated clusters) use StatusAt with their own now.
func (pt *PivotTracing) Status() Status {
	return pt.StatusAt(time.Duration(time.Now().UnixNano()))
}

// StatusAt reports health as of the given instant, which must be on the
// same clock the agents stamp their heartbeats with.
func (pt *PivotTracing) StatusAt(now time.Duration) Status {
	pt.mu.Lock()
	agents := make([]AgentHealth, 0, len(pt.agents))
	byTenant := make(map[string]*TenantStatus)
	var tenantNames []string
	for _, rec := range pt.agents {
		hb := rec.hb
		age := now - hb.Time
		agents = append(agents, AgentHealth{
			Host:     hb.Host,
			ProcName: hb.ProcName,
			Interval: hb.Interval,
			Age:      age,
			Healthy:  age >= 0 && age <= StaleAfterIntervals*hb.Interval,
			Queries:  hb.Queries,
			Stats:    hb.Stats,
		})
		for _, u := range rec.usage {
			ts := byTenant[u.Tenant]
			if ts == nil {
				ts = &TenantStatus{Tenant: u.Tenant}
				byTenant[u.Tenant] = ts
				tenantNames = append(tenantNames, u.Tenant)
			}
			ts.Agents++
			// Max across agents = the tenant's distinct installed query
			// set (every agent weaves every install); tuples sum.
			if q := int(u.Queries); q > ts.Queries {
				ts.Queries = q
			}
			ts.Tuples += u.Tuples
		}
	}
	handles := make([]*Installed, 0, len(pt.installed))
	for _, h := range pt.installed {
		handles = append(handles, h)
	}
	pt.mu.Unlock()

	sort.Slice(agents, func(i, j int) bool {
		if agents[i].Host != agents[j].Host {
			return agents[i].Host < agents[j].Host
		}
		return agents[i].ProcName < agents[j].ProcName
	})

	queries := make([]QueryStatus, 0, len(handles))
	for _, h := range handles {
		dropped := h.DroppedGroups()
		h.mu.Lock()
		qs := QueryStatus{
			Name:          h.Name,
			Rows:          h.global.Len(),
			Reports:       h.reports,
			FirstResult:   h.firstResult,
			Lease:         h.lease,
			DroppedGroups: dropped,
			Quarantines:   len(h.quarantines),
		}
		h.mu.Unlock()
		for _, prog := range h.Plan.Programs {
			qs.Invocations += prog.Cost.Invocations.Load()
			qs.TuplesEmitted += prog.Cost.TuplesEmitted.Load()
		}
		queries = append(queries, qs)
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].Name < queries[j].Name })

	sort.Strings(tenantNames)
	tenants := make([]TenantStatus, 0, len(tenantNames))
	for _, name := range tenantNames {
		tenants = append(tenants, *byTenant[name])
	}

	return Status{
		Now:       now,
		Agents:    agents,
		Queries:   queries,
		Tenants:   tenants,
		Telemetry: pt.tel.Snapshot(),
	}
}

// StatusText renders the wall-clock status (see RenderStatus).
func (pt *PivotTracing) StatusText() string { return RenderStatus(pt.Status()) }

// statWidth is the rendered width of one agent.Stats column.
func statWidth(f agent.StatField) int { return max(7, len(f.Column)) }

// RenderStatus formats a Status as the aligned tables cmd/ptstat prints:
// agents (with heartbeat age and health, then one column per agent.Stats
// counter that declares one, in declaration order), queries (with cost
// counters), then the frontend telemetry snapshot.
func RenderStatus(s Status) string {
	var b strings.Builder
	fmt.Fprintf(&b, "agents (%d):\n", len(s.Agents))
	fmt.Fprintf(&b, "  %-24s %-12s %10s %10s %-9s %7s",
		"host", "proc", "age", "interval", "health", "queries")
	for _, f := range agent.StatFields {
		if f.Column != "" {
			fmt.Fprintf(&b, " %*s", statWidth(f), f.Column)
		}
	}
	b.WriteByte('\n')
	for _, a := range s.Agents {
		health := "ok"
		if !a.Healthy {
			health = "UNHEALTHY"
		}
		fmt.Fprintf(&b, "  %-24s %-12s %10s %10s %-9s %7d",
			a.Host, a.ProcName,
			a.Age.Round(time.Millisecond), a.Interval, health, a.Queries)
		for i, f := range agent.StatFields {
			if f.Column != "" {
				fmt.Fprintf(&b, " %*d", statWidth(f), a.Stats.Values()[i])
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "\nqueries (%d):\n", len(s.Queries))
	fmt.Fprintf(&b, "  %-16s %8s %9s %14s %12s %9s %9s %8s %8s\n",
		"query", "rows", "reports", "first-result", "invocations", "emitted",
		"lease", "dropped", "quarant")
	for _, q := range s.Queries {
		first := "-"
		if q.FirstResult >= 0 {
			first = q.FirstResult.Round(time.Microsecond).String()
		}
		lease := "-"
		if q.Lease > 0 {
			lease = q.Lease.String()
		}
		fmt.Fprintf(&b, "  %-16s %8d %9d %14s %12d %9d %9s %8d %8d\n",
			q.Name, q.Rows, q.Reports, first, q.Invocations, q.TuplesEmitted,
			lease, q.DroppedGroups, q.Quarantines)
	}
	if len(s.Tenants) > 0 {
		fmt.Fprintf(&b, "\ntenants (%d):\n", len(s.Tenants))
		fmt.Fprintf(&b, "  %-16s %7s %8s %12s\n", "tenant", "agents", "queries", "tuples")
		for _, ten := range s.Tenants {
			fmt.Fprintf(&b, "  %-16s %7d %8d %12d\n", ten.Tenant, ten.Agents, ten.Queries, ten.Tuples)
		}
	}
	if !s.Telemetry.Empty() {
		b.WriteString("\ntelemetry:\n")
		b.WriteString(s.Telemetry.Render())
	}
	return b.String()
}
