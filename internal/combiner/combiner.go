// Package combiner implements hierarchical aggregation tiers for Pivot
// Tracing: aggregator processes that subscribe to a partition of the agent
// report topics, merge ReportBatch frames per query in virtual
// time, and forward the merged frames upstream. Tiers compose into
// rack→pod→frontend trees, so trace export cost scales with the topology
// rather than with cluster size — the agents' partial-aggregation argument
// (§4 of the paper) applied once more above the agents.
//
// A combiner holds one advice.Merger per query with pending state — the
// same type agents drain and the frontend merges into — so the merge
// algebra (clone on first insert, pairwise agg.State merge, raw-row and
// tombstone union, group-shape validation) is not restated here. What this
// package owns is the tier around it: partition hashing and rendezvous
// ownership (assign.go), the flush cadence, key-sorted drains stamped
// with the tier's identity, tenant routing at the tier that delivers to
// frontends, and the merged/forwarded ledger. Any reassociation of the
// merge tree yields byte-identical final results; the differential suite
// (pivot/differential_test.go) proves this against the flat topology on
// every generated case.
package combiner

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/simtime"
)

// RootTopic is the conventional upstream topic of the mid tier: mid
// combiners forward merged frames here, and the root combiner subscribes.
const RootTopic = "pt.results.root"

// Config wires one combiner tier.
type Config struct {
	// Interval is the merge/forward cadence (virtual time when an Env is
	// attached); <= 0 selects agent.DefaultInterval.
	Interval time.Duration
	// Subscribe is the disjoint set of downstream topics this combiner
	// owns (partition topics for a mid tier, RootTopic for the root).
	Subscribe []string
	// Upstream is the next tier's topic, which merged frames forward to.
	// "" marks the tier that delivers to frontends: it learns each query's
	// owning tenant from the Install frames on the control topic and
	// publishes that tenant's queries on the tenant's own results topic
	// (agent.TenantResultsTopic), everything else on agent.ResultsTopic,
	// so each tenant frontend receives exactly its own queries' frames.
	Upstream string
}

// route is what the delivering tier remembers of one tenant-owned query.
// It holds the query's agent.Lease, on the combiner's clock, so a tenant
// that dies without uninstalling does not stay in the table forever.
type route struct {
	tenant string
	lease  agent.Lease
}

// routeGrace is how many lease durations a route outlives its last
// renewal. Agents shed the query after one; nothing of it can still be in
// flight below this tier one more later, so no tail frame of a dead
// tenant is misdelivered onto the shared results topic.
const routeGrace = 2

// Combiner is one aggregation-tier process. It merges every Report and
// ReportBatch arriving on its subscribed topics into per-query state and
// forwards the merged reports upstream at each flush. Nothing is dropped
// in-process: every report merged in is either already forwarded or still
// pending, and both sides are counted (CombinerReportsMerged /
// CombinerFramesOut in its heartbeats). A report the merger rejects as
// malformed is skipped whole and counted on neither side, but in
// ReportsRejected.
type Combiner struct {
	env        *simtime.Env
	host, proc string
	b          *bus.Bus
	cfg        Config

	mu      sync.Mutex
	pending map[string]*advice.Merger // per query: merged, not yet forwarded
	routes  map[string]route          // queryID → owning tenant (delivering tier only)
	closed  bool

	// live counts in the heartbeat's own declaration: reports merged in
	// and rejected, reports and rows forwarded, and upstream frames
	// (CombinerFramesOut, which Stats also reports as Batches).
	live agent.Counters[atomic.Int64]

	subs []bus.Subscription
}

// New starts a combiner on b subscribing to cfg.Subscribe. host/proc name
// the tier in heartbeats and forwarded reports. With a simulation
// environment the combiner flushes on a virtual-time loop; with env == nil
// (a real process, or chaos tests driving time by hand) the embedder calls
// Flush.
func New(env *simtime.Env, host, proc string, b *bus.Bus, cfg Config) *Combiner {
	if cfg.Interval <= 0 {
		cfg.Interval = agent.DefaultInterval
	}
	c := &Combiner{
		env: env, host: host, proc: proc, b: b, cfg: cfg,
		pending: make(map[string]*advice.Merger),
	}
	for _, topic := range cfg.Subscribe {
		c.subs = append(c.subs, b.Subscribe(topic, c.onReport))
	}
	if cfg.Upstream == "" {
		c.routes = make(map[string]route)
		c.subs = append(c.subs, b.Subscribe(agent.ControlTopic, c.onControl))
	}
	if env != nil {
		env.Go(c.flushLoop)
	}
	return c
}

func (c *Combiner) flushLoop() {
	for !c.env.Done() {
		c.env.Sleep(c.cfg.Interval)
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		c.Flush()
	}
}

// onControl learns query→tenant ownership from install traffic and keeps
// each route's lease in step with the query's.
func (c *Combiner) onControl(msg any) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m := msg.(type) {
	case agent.Install:
		if m.Tenant != "" {
			r := route{tenant: m.Tenant}
			r.lease.Renew(m.TTL, now, routeGrace)
			c.routes[m.QueryID] = r
		}
	case agent.Renew:
		for _, id := range m.QueryIDs {
			if r, ok := c.routes[id]; ok {
				r.lease.Renew(m.TTL, now, routeGrace)
				c.routes[id] = r
			}
		}
	case agent.Uninstall:
		delete(c.routes, m.QueryID)
	}
}

// onReport folds downstream result frames into per-query pending state.
func (c *Combiner) onReport(msg any) {
	if m, ok := msg.(agent.ReportBatch); ok {
		for i := range m.Reports {
			c.merge(&m.Reports[i])
		}
	}
}

// merge folds one report into its query's merger. The report stays
// shared with every other subscriber of the topic (see advice.Merger.Merge
// for the ownership rule).
func (c *Combiner) merge(r *agent.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, held := c.pending[r.QueryID]
	if !held {
		m = advice.NewMerger(nil, advice.Unbounded)
	}
	if _, err := m.Merge(r.Groups, r.Raws, r.Drops); err != nil {
		c.live.ReportsRejected.Add(1)
		return // malformed: skipped whole, and a first report leaves no pending entry
	}
	if !held {
		c.pending[r.QueryID] = m
	}
	c.live.CombinerReportsMerged.Add(1)
}

// now returns the combiner's report timestamp (virtual under simulation).
func (c *Combiner) now() time.Duration {
	if c.env != nil {
		return c.env.Now()
	}
	return time.Duration(time.Now().UnixNano())
}

// drainLocked hands off the pending state and renders it as reports
// stamped with the combiner's identity, sorted by query then group key.
// Each query keeps its merger, and so its group table, for the next
// interval; a merger that took nothing since the last drain is deleted,
// so a query that went quiet leaves nothing behind. Caller holds c.mu.
func (c *Combiner) drainLocked(now time.Duration) []agent.Report {
	ids := make([]string, 0, len(c.pending))
	for id, m := range c.pending {
		if m.Empty() {
			delete(c.pending, id)
		} else {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids)
	out := make([]agent.Report, 0, len(ids))
	for _, id := range ids {
		m := c.pending[id].Handoff()
		groups := m.Groups() // the drained merger's own order, ours to sort
		slices.SortFunc(groups, func(a, b *advice.Group) int { return strings.Compare(a.Key, b.Key) })
		out = append(out, agent.Report{
			QueryID: id, Host: c.host, ProcName: c.proc, Time: now,
			Groups: groups, Raws: m.Raws(), Drops: m.Drops(),
		})
	}
	return out
}

// topicLocked returns the topic one query's merged frames go out on.
// Caller holds c.mu.
func (c *Combiner) topicLocked(queryID string) string {
	if c.cfg.Upstream != "" {
		return c.cfg.Upstream
	}
	if r, ok := c.routes[queryID]; ok {
		return agent.TenantResultsTopic(r.tenant)
	}
	return agent.ResultsTopic
}

// run is one tenant's share of a flush: the next n reports go out on its
// topic.
type run struct {
	tenant, topic string
	n             int
}

// Flush forwards the merged pending state upstream as size-capped
// ReportBatch frames — one batch run per topic, so the delivering tier
// emits each tenant's queries on that tenant's own topic — forgets the
// routes whose lease lapsed routeGrace TTLs ago, then heartbeats the
// tier's merge/forward accounting on the health topic.
func (c *Combiner) Flush() {
	now := c.now()
	c.mu.Lock()
	reports := c.drainLocked(now)
	queries := len(reports)

	// Cut the (query-sorted) reports into one run per topic, in the order
	// the topics first appear, queries in order within each run. A topic
	// is its tenant's: above the delivering tier, routes is nil and every
	// query's tenant is "".
	var runs []run
	runOf := func(queryID string) int {
		tenant := c.routes[queryID].tenant
		return slices.IndexFunc(runs, func(x run) bool { return x.tenant == tenant })
	}
	for _, r := range reports {
		if i := runOf(r.QueryID); i >= 0 {
			runs[i].n++
		} else {
			runs = append(runs, run{c.routes[r.QueryID].tenant, c.topicLocked(r.QueryID), 1})
		}
		c.live.Reports.Add(1)
		c.live.RowsReported.Add(int64(len(r.Groups) + len(r.Raws)))
	}
	if len(runs) > 1 {
		slices.SortStableFunc(reports, func(a, b agent.Report) int { return cmp.Compare(runOf(a.QueryID), runOf(b.QueryID)) })
	}
	for id, r := range c.routes {
		if r.lease.Lapsed(now) {
			delete(c.routes, id)
		}
	}
	c.mu.Unlock()
	for _, r := range runs {
		agent.SplitBatches(reports[:r.n], agent.ReportSize, func(batch []agent.Report) {
			c.live.CombinerFramesOut.Add(1)
			c.b.Publish(r.topic, agent.ReportBatch{Reports: batch})
		})
		reports = reports[r.n:]
	}

	c.b.Publish(agent.HealthTopic, agent.Heartbeat{
		Host:     c.host,
		ProcName: c.proc,
		Time:     c.now(),
		Interval: c.cfg.Interval,
		Queries:  queries,
		Stats:    c.Stats(),
	})
}

// Stats returns the tier's accounting in the agents' Stats shape, as
// heartbeated: reports/rows/frames forwarded upstream plus the combiner
// counters. Everything merged in is either forwarded or still pending —
// Pending() closes the ledger.
func (c *Combiner) Stats() agent.Stats {
	s := agent.Load(&c.live)
	s.Batches = s.CombinerFramesOut
	return s
}

// Pending returns how many queries currently hold merged-but-unforwarded
// state.
func (c *Combiner) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.pending {
		if !m.Empty() {
			n++
		}
	}
	return n
}

// DrainPending removes and returns the merged-but-unforwarded state as
// reports without publishing them. Chaos tests use it to account a killed
// tier's in-flight state exactly: rows that were merged into this combiner
// but never forwarded are the deployment's only loss, and this is their
// ledger.
func (c *Combiner) DrainPending() []agent.Report {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainLocked(now)
}

// Close unsubscribes the combiner and stops its flush loop. Pending state
// remains drainable (DrainPending) for accounting.
func (c *Combiner) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, s := range c.subs {
		c.b.Unsubscribe(s)
	}
}
