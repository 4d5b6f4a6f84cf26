// Package core implements the Pivot Tracing frontend: the component users
// submit queries to (§2.2 of the paper). The frontend parses and compiles
// queries to advice, distributes the advice to per-process agents over the
// message bus, and performs global aggregation of the partial results the
// agents report, exposing a streaming result dataset.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/spans"
	"repro/internal/telemetry"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// PivotTracing is the query frontend.
type PivotTracing struct {
	bus *bus.Bus
	reg *tracepoint.Registry

	mu        sync.Mutex
	installed map[string]*Installed
	named     map[string]*query.Query
	nextID    int
	agents    map[[2]string]*agentHealth

	// tenant/share configure multi-tenant operation (see tenant.go);
	// framesIn counts inbound result frames — the per-frontend load meter.
	tenant   string
	share    int
	framesIn atomic.Int64

	tel           *telemetry.Registry
	reportsMerged *telemetry.Counter
	reportsReject *telemetry.Counter
	groupsMerged  *telemetry.Counter
	rawsMerged    *telemetry.Counter
	dropsMerged   *telemetry.Counter
	quarantinesC  *telemetry.Counter
	firstResultNS *telemetry.Histogram

	metaWeave *tracepoint.Tracepoint // "tracepoint.Weave", nil until enabled

	// spanBuilder collects SpanBatch frames into per-request DAGs; nil
	// until EnableTraceCollection. explain holds the latest per-process
	// ExplainStats snapshot keyed by (query, host, proc).
	spanBuilder *spans.Builder
	explainMu   sync.Mutex
	explain     map[explainKey]agent.ExplainStats

	resultsSub    bus.Subscription
	tenantSub     bus.Subscription
	healthSub     bus.Subscription
	statusSub     bus.Subscription
	quarantineSub bus.Subscription
	traceSub      bus.Subscription
}

// explainKey identifies one process's ExplainStats stream for one query.
type explainKey struct {
	query, host, proc string
}

// New creates a frontend bound to the bus and the master tracepoint
// registry (the shared vocabulary of tracepoint definitions).
func New(b *bus.Bus, reg *tracepoint.Registry) *PivotTracing {
	return NewWithOptions(b, reg, Options{})
}

// newFrontend builds the frontend state without any bus subscriptions;
// NewWithOptions wires the subscription set the tenancy options call for.
func newFrontend(b *bus.Bus, reg *tracepoint.Registry) *PivotTracing {
	tel := telemetry.NewRegistry()
	return &PivotTracing{
		bus:           b,
		reg:           reg,
		installed:     make(map[string]*Installed),
		named:         make(map[string]*query.Query),
		agents:        make(map[[2]string]*agentHealth),
		tel:           tel,
		reportsMerged: tel.Counter("core.reports.merged"),
		reportsReject: tel.Counter("core.reports.rejected"),
		groupsMerged:  tel.Counter("core.groups.merged"),
		rawsMerged:    tel.Counter("core.raws.merged"),
		dropsMerged:   tel.Counter("core.baggage.drops.merged"),
		quarantinesC:  tel.Counter("core.quarantines"),
		firstResultNS: tel.Histogram("core.install.to.first.ns"),
	}
}

// EnableTraceCollection starts collecting agent-shipped spans into
// per-request DAGs. Explain stats are always collected (they are tiny and
// only flow while agents have span capture enabled); span collection is
// opt-in because trace volume scales with request rate.
func (pt *PivotTracing) EnableTraceCollection() *spans.Builder {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.spanBuilder == nil {
		pt.spanBuilder = spans.NewBuilder()
	}
	return pt.spanBuilder
}

// Traces returns the frontend's span DAG builder, or nil if trace
// collection was never enabled.
func (pt *PivotTracing) Traces() *spans.Builder {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.spanBuilder
}

// onTrace handles TraceTopic frames: span batches feed the DAG builder
// (when enabled), explain snapshots replace the previous one from the same
// (query, host, proc) — counters are cumulative, so latest wins.
func (pt *PivotTracing) onTrace(msg any) {
	switch m := msg.(type) {
	case agent.SpanBatch:
		pt.mu.Lock()
		b := pt.spanBuilder
		pt.mu.Unlock()
		if b != nil {
			b.AddBatch(m.Spans)
		}
	case agent.ExplainStats:
		pt.explainMu.Lock()
		if pt.explain == nil {
			pt.explain = make(map[explainKey]agent.ExplainStats)
		}
		pt.explain[explainKey{m.QueryID, m.Host, m.ProcName}] = m
		pt.explainMu.Unlock()
	}
}

// Registry returns the master tracepoint registry.
func (pt *PivotTracing) Registry() *tracepoint.Registry { return pt.reg }

// Telemetry returns the frontend's metric registry. Callers may attach
// other layers' meters to it (see pivot.EnableSelfTelemetry).
func (pt *PivotTracing) Telemetry() *telemetry.Registry { return pt.tel }

// EnableMetaTracepoints defines the frontend-side meta-tracepoint
// "tracepoint.Weave" (exports: name, query) in the registry and arms it:
// every install crosses it once per woven tracepoint, after the weave
// instructions have been published. Queries over it observe the tracer
// reconfiguring itself.
func (pt *PivotTracing) EnableMetaTracepoints() {
	tp := pt.reg.Define("tracepoint.Weave", "name", "query")
	pt.mu.Lock()
	pt.metaWeave = tp
	pt.mu.Unlock()
}

// Installed is a handle to an installed query: a streaming dataset of
// results plus the compiled plan.
type Installed struct {
	pt   *PivotTracing
	Name string
	Plan *plan.Plan

	mu          sync.Mutex
	global      *advice.Merger // groups + raws + eviction tombstones, merged
	kept        keptOrder      // global's groups in the order Rows last returned them
	listeners   []func(agent.Report)
	installedAt time.Time
	firstResult time.Duration // install→first-report latency; -1 until set
	reports     int64         // reports merged
	lease       time.Duration // install TTL agents enforce; 0 = immortal
	limits      advice.Limits
	quarantines []agent.Quarantine
	mergeNS     int64 // cumulative wall-clock ns spent merging this query's reports
}

// Install parses, compiles, and installs a query with the Table 3
// optimizations enabled. The query is named automatically (Q1, Q2, ...)
// unless a name is assigned via InstallNamed.
func (pt *PivotTracing) Install(text string) (*Installed, error) {
	return pt.InstallNamed("", text, plan.Optimized)
}

// InstallNamed installs a query under an explicit name (which later
// queries can reference as a join source) and with explicit compile
// options.
func (pt *PivotTracing) InstallNamed(name, text string, opts plan.Options) (*Installed, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	pt.mu.Lock()
	if name == "" {
		pt.nextID++
		// Tenant frontends prefix their auto-names with the tenant ID so
		// concurrent frontends allocate from disjoint namespaces.
		if pt.tenant != "" {
			name = fmt.Sprintf("%s.Q%d", pt.tenant, pt.nextID)
		} else {
			name = fmt.Sprintf("Q%d", pt.nextID)
		}
	}
	if _, dup := pt.installed[name]; dup {
		pt.mu.Unlock()
		return nil, fmt.Errorf("core: query %q already installed", name)
	}
	q.Name = name
	named := make(map[string]*query.Query, len(pt.named))
	for k, v := range pt.named {
		named[k] = v
	}
	pt.mu.Unlock()

	// Fair-share the accumulator limits and baggage budget across the
	// declared tenant count before compiling (the budget is baked into the
	// compiled programs' safety envelope).
	pt.applyFairShare(&opts.Limits, &opts.Safety.Budget)

	p, err := plan.Compile(q, pt.reg, named, opts)
	if err != nil {
		return nil, err
	}
	// Leases default on: a frontend that dies stops renewing, and agents
	// shed its queries. Negative opts.Lease opts out (TTL 0 = immortal).
	lease := max(cmp.Or(opts.Lease, agent.DefaultLease), 0)
	h := &Installed{
		pt:          pt,
		Name:        name,
		Plan:        p,
		global:      advice.NewMerger(p.Emit.Emit, opts.Limits),
		installedAt: time.Now(),
		firstResult: -1,
		lease:       lease,
		limits:      opts.Limits,
	}
	pt.mu.Lock()
	pt.installed[name] = h
	pt.named[name] = q
	metaWeave := pt.metaWeave
	pt.mu.Unlock()

	pt.bus.Publish(agent.ControlTopic, agent.Install{
		QueryID:  name,
		Programs: p.Programs,
		TTL:      lease,
		Limits:   opts.Limits,
		Tenant:   pt.tenant,
	})
	// Cross the tracepoint.Weave meta-tracepoint after the weave
	// instructions are out and with no frontend locks held: woven advice
	// re-enters an agent, which may call straight back into this frontend.
	if metaWeave != nil {
		ctx := tracepoint.WithProc(context.Background(), tracepoint.ProcInfo{Host: "frontend", ProcName: "core"})
		for _, prog := range p.Programs {
			metaWeave.Here(ctx, prog.Tracepoint, name)
		}
	}
	return h, nil
}

// Installs returns the install messages for all currently installed
// queries. Newly started processes replay these so that late-joining
// agents weave standing queries (the paper's always-on monitoring).
func (pt *PivotTracing) Installs() []agent.Install {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	names := make([]string, 0, len(pt.installed))
	for name := range pt.installed {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]agent.Install, 0, len(names))
	for _, name := range names {
		h := pt.installed[name]
		out = append(out, agent.Install{
			QueryID:  name,
			Programs: h.Plan.Programs,
			TTL:      h.lease,
			Limits:   h.limits,
			Tenant:   pt.tenant,
		})
	}
	return out
}

// RenewLeases re-arms the lease of every installed query (TTL 0 on the
// wire keeps each query's current duration). The frontend's host calls
// this periodically — the cluster runtime and pivot.StartReporting do —
// so that only a dead or partitioned frontend lets leases lapse.
func (pt *PivotTracing) RenewLeases() {
	pt.mu.Lock()
	ids := make([]string, 0, len(pt.installed))
	for name, h := range pt.installed {
		if h.lease > 0 {
			ids = append(ids, name)
		}
	}
	pt.mu.Unlock()
	if len(ids) == 0 {
		return
	}
	sort.Strings(ids)
	pt.bus.Publish(agent.ControlTopic, agent.Renew{QueryIDs: ids})
}

// onReport merges an agent's partial results into the query's global
// accumulator and notifies listeners. Agents batch a flush interval's
// reports into one ReportBatch frame; each constituent report is merged —
// and delivered to listeners — individually, in batch order, so consumers
// observe exactly the stream they would have seen unbatched.
func (pt *PivotTracing) onReport(msg any) {
	pt.framesIn.Add(1)
	if m, ok := msg.(agent.ReportBatch); ok {
		for _, r := range m.Reports {
			pt.mergeReport(r)
		}
	}
}

// mergeReport folds one report into its query's global state. A report the
// merger rejects as malformed (frames decode from the network) is counted
// in core.reports.rejected and otherwise ignored: it reaches neither the
// results nor the listeners.
func (pt *PivotTracing) mergeReport(r agent.Report) {
	pt.mu.Lock()
	h := pt.installed[r.QueryID]
	pt.mu.Unlock()
	if h == nil {
		return
	}
	mergeStart := time.Now()
	h.mu.Lock()
	newDrops, err := h.global.Merge(r.Groups, r.Raws, r.Drops)
	if err != nil {
		h.mu.Unlock()
		pt.reportsReject.Inc()
		return
	}
	if h.firstResult < 0 {
		h.firstResult = time.Since(h.installedAt)
		pt.firstResultNS.Observe(int64(h.firstResult))
	}
	h.reports++
	var listeners []func(agent.Report)
	listeners = append(listeners, h.listeners...)
	h.mergeNS += int64(time.Since(mergeStart))
	h.mu.Unlock()
	pt.reportsMerged.Inc()
	pt.groupsMerged.Add(int64(len(r.Groups)))
	pt.rawsMerged.Add(int64(len(r.Raws)))
	pt.dropsMerged.Add(int64(newDrops))
	for _, fn := range listeners {
		fn(r)
	}
}

// onQuarantine records a circuit-breaker notice against its query so
// status output can flag results from a quarantined query.
func (pt *PivotTracing) onQuarantine(msg any) {
	qn, ok := msg.(agent.Quarantine)
	if !ok {
		return
	}
	pt.quarantinesC.Inc()
	pt.mu.Lock()
	h := pt.installed[qn.QueryID]
	pt.mu.Unlock()
	if h == nil {
		return
	}
	h.mu.Lock()
	h.quarantines = append(h.quarantines, qn)
	h.mu.Unlock()
}

// Lease returns the query's install TTL (0 = immortal).
func (h *Installed) Lease() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lease
}

// DroppedGroups returns how many distinct baggage groups the query's
// budget has evicted, as accounted by the in-baggage tombstones agents
// report. Results are exact on the reported subset: every group is either
// fully present in Rows or counted here, never partially merged.
func (h *Installed) DroppedGroups() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.global.DroppedGroups()
}

// Quarantines returns the circuit-breaker notices received for this
// query, in arrival order. A non-empty result means some processes are no
// longer evaluating the query's advice and results are partial.
func (h *Installed) Quarantines() []agent.Quarantine {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]agent.Quarantine(nil), h.quarantines...)
}

// Partial reports whether the query's results are known-incomplete:
// baggage budgets evicted groups, the frontend's raw cap evicted rows, or
// a circuit breaker quarantined advice.
func (h *Installed) Partial() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	rawsDropped, _ := h.global.CapCounts()
	return h.global.DroppedGroups() > 0 || rawsDropped > 0 || len(h.quarantines) > 0
}

// OnReport registers a callback invoked for every per-interval report the
// query receives — the streaming interface. A report that arrived over a
// bus link is lent for the call (see bus.Link): its groups, and their keys
// and Rep strings, are reused for the link's next frame, so a listener
// copies what it keeps, as an advice.Merger does.
func (h *Installed) OnReport(fn func(agent.Report)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.listeners = append(h.listeners, fn)
}

// Rows returns the globally aggregated results accumulated so far, sorted
// by their values for stable output: in Select-column order, so by group
// key unless an aggregate leads. The rows are new, and the caller owns
// them. A grouped query keeps its groups in the order it last returned
// them, appends the groups first seen since, and sorts again only when
// the rows it materializes in that order are out of order: when new
// groups arrived or an aggregate-led order moved. A raw query's rows come
// in arrival order.
func (h *Installed) Rows() []tuple.Tuple {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.global.Op.Raw {
		return h.global.Rows()
	}
	h.kept.groups = append(h.kept.groups, h.global.GroupsSince(len(h.kept.groups))...)
	rows := h.global.Op.Rows(h.kept.groups)
	if !slices.IsSortedFunc(rows, compareRows) {
		h.kept.rows = rows
		sort.Sort(&h.kept)
		h.kept.rows = nil
	}
	return rows
}

// keptOrder is a query's groups in result order: Rows sorts it, pairing
// each group with its row for the length of the sort only, so it holds no
// row the caller was handed.
type keptOrder struct {
	groups []*advice.Group
	rows   []tuple.Tuple
}

func (k *keptOrder) Len() int           { return len(k.rows) }
func (k *keptOrder) Less(i, j int) bool { return compareRows(k.rows[i], k.rows[j]) < 0 }
func (k *keptOrder) Swap(i, j int) {
	k.rows[i], k.rows[j] = k.rows[j], k.rows[i]
	k.groups[i], k.groups[j] = k.groups[j], k.groups[i]
}

func compareRows(a, b tuple.Tuple) int {
	for i := range min(len(a), len(b)) {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Groups snapshots the globally merged partial groups (cloned, in
// first-seen order), exposing the aggregate-state metadata that Rows
// materializes away: raw fold counts, sampling weights, and the Exact
// flag. Callers that must distinguish an exact COUNT from a weighted
// estimate read it here.
func (h *Installed) Groups() []*advice.Group {
	h.mu.Lock()
	defer h.mu.Unlock()
	gs := h.global.Groups()
	out := make([]*advice.Group, 0, len(gs))
	for _, g := range gs {
		out = append(out, g.Clone())
	}
	return out
}

// Schema returns the output schema of the query.
func (h *Installed) Schema() tuple.Schema { return h.Plan.Schema }

// Explain renders the compiled advice in the paper's notation.
func (h *Installed) Explain() string { return h.Plan.Explain() }

// ExplainAnalyze renders the compiled plan with live per-operator
// execution counters, followed by the frontend's merge accounting and —
// when agents ship ExplainStats (span capture enabled) — a per-process
// flush breakdown. The operator counters come from the in-process
// advice.Cost atomics, which are globally exact within one OS process
// (including the whole simulated cluster, whose bus passes Program
// pointers); the per-process rows are each worker's own view and are
// rendered as a breakdown, never summed into the operator lines. In a
// shared-pointer deployment that breakdown degenerates: every process
// reports the same global counters (only the flush timings are truly
// per-process); over a TCP bus each worker decodes its own Program copy
// and the rows are genuinely per-process, as each worker's own
// agent.Agent.ExplainAnalyze is.
func (h *Installed) ExplainAnalyze() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE %s:\n\n", h.Name)
	b.WriteString(h.Plan.ExplainAnalyze())
	h.mu.Lock()
	reports, mergeNS := h.reports, h.mergeNS
	rows := h.global.Len()
	dropped := h.global.DroppedGroups()
	rawsDropped, overflowed := h.global.CapCounts()
	h.mu.Unlock()
	fmt.Fprintf(&b, "\n\nMERGE at frontend  [reports=%d rows=%d dropped-groups=%d raws-dropped=%d groups-overflowed=%d merge=%s]",
		reports, rows, dropped, rawsDropped, overflowed, time.Duration(mergeNS))

	h.pt.explainMu.Lock()
	var procs []agent.ExplainStats
	for k, es := range h.pt.explain {
		if k.query == h.Name {
			procs = append(procs, es)
		}
	}
	h.pt.explainMu.Unlock()
	if len(procs) > 0 {
		sort.Slice(procs, func(i, j int) bool {
			if procs[i].Host != procs[j].Host {
				return procs[i].Host < procs[j].Host
			}
			return procs[i].ProcName < procs[j].ProcName
		})
		fmt.Fprintf(&b, "\n\nper-process agent breakdown:\n")
		fmt.Fprintf(&b, "  %-24s %-36s %10s %9s %9s %9s %9s\n",
			"host/proc", "tracepoint", "fires", "filtered", "packed", "emitted", "flush")
		for _, es := range procs {
			loc := es.Host + "/" + es.ProcName
			for i, op := range es.Ops {
				flush := ""
				if i == 0 {
					flush = time.Duration(es.FlushNS).String()
				}
				fmt.Fprintf(&b, "  %-24s %-36s %10d %9d %9d %9d %9s\n",
					loc, op.Tracepoint, op.Invocations, op.TuplesFiltered,
					op.TuplesPacked, op.TuplesEmitted, flush)
				loc = ""
			}
		}
	}
	return b.String()
}

// Uninstall removes the query's advice from all agents. The handle's
// accumulated results remain readable.
func (h *Installed) Uninstall() {
	h.pt.mu.Lock()
	delete(h.pt.installed, h.Name)
	delete(h.pt.named, h.Name)
	h.pt.mu.Unlock()
	h.pt.bus.Publish(agent.ControlTopic, agent.Uninstall{QueryID: h.Name})
}

// Close unsubscribes the frontend from the bus. (Unsubscribing a zero
// Subscription is a no-op, so the tenant/primary split needs no cases.)
func (pt *PivotTracing) Close() {
	pt.bus.Unsubscribe(pt.resultsSub)
	pt.bus.Unsubscribe(pt.tenantSub)
	pt.bus.Unsubscribe(pt.healthSub)
	pt.bus.Unsubscribe(pt.statusSub)
	pt.bus.Unsubscribe(pt.quarantineSub)
	pt.bus.Unsubscribe(pt.traceSub)
}
