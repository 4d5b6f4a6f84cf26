// Package agent implements the per-process Pivot Tracing agent (§5): it
// awaits weave/unweave instructions on the control topic, installs advice
// at the process's tracepoints, performs process-local partial aggregation
// of emitted tuples, and publishes partial query results at a configurable
// interval (one second by default).
//
// File map:
//
//	agent.go     the Agent: control path (install, weave, uninstall), the
//	             lock-free emit hot path, advice sinks, Stats
//	messages.go  bus topics, message types
//	stats.go     Counters: the one declaration of the heartbeat counters
//	             (Stats, the agent's live counts), StatFields, Values
//	flush.go     Flush (drain → tenant accounting → build reports →
//	             publish), the batch splitter, trace and health frames
//	leases.go    install leases: renew, expiry
//	retention.go the outage ring buffer: retain, replay
//	sampling.go  request-level sampling: the per-query rate record,
//	             decision minting, adaptive tick
package agent

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/simtime"
	"repro/internal/spans"
	"repro/internal/telemetry"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// Agent is the per-process Pivot Tracing runtime.
type Agent struct {
	env      *simtime.Env
	proc     tracepoint.ProcInfo
	reg      *tracepoint.Registry
	bus      *bus.Bus
	interval time.Duration

	mu      sync.Mutex
	queries map[string]*queryState
	// nextLapse is the earliest lease deadline among the installed
	// queries, 0 while none has one: a flush before it expires nothing.
	nextLapse time.Duration
	// queriesView is a copy-on-write snapshot of a.queries, rebuilt under
	// a.mu on every install/uninstall. EmitTuple — the hot path, invoked
	// from every advice fire — resolves its query through this pointer with
	// a single atomic load, so concurrent fires never contend on a.mu.
	queriesView atomic.Pointer[map[string]*queryState]
	// reportTopic overrides the topic report batches are published on (a
	// combiner tree assigns each agent its hash partition); nil selects
	// ResultsTopic.
	reportTopic atomic.Pointer[string]
	// tenantTuples is the cumulative per-tenant tuple usage accounted at
	// flush time (cold path, under mu — the hot emit path stays untouched).
	// usage is its last published snapshot, stale once a total or the
	// installed query set has changed since.
	tenantTuples map[string]int64
	usage        []TenantQuota
	usageStale   bool

	// live holds what the agent itself counts, one atomic per fact; Stats
	// adds what other components count (installed accumulators, the span
	// recorder) and the sampling records' lowest rate. RawsDropped and
	// GroupsOverflowed hold the share of uninstalled queries, folded in at
	// uninstall so Stats stays cumulative across a query's whole lifetime.
	live Counters[atomic.Int64]

	retainMu  sync.Mutex
	retained  []Report // FIFO ring of reports awaiting replay
	retainCap int

	recorder atomic.Pointer[spans.Recorder]

	// Request-level sampling state. samplingView is a copy-on-write,
	// id-sorted list of the sampled queries' records, so
	// MintSampleDecision iterates (and consumes randomness) in a
	// deterministic order; rngMu guards sampleRng and the records'
	// effective rates. pressureMark remembers the baggage-drop counter
	// total at the last tick: any growth is budget pressure and backs the
	// rates off. nextTick (under mu) is the agent-clock time the next tick
	// is due.
	samplingView atomic.Pointer[[]*sampled]
	pressureMark atomic.Int64
	nextTick     time.Duration
	rngMu        sync.Mutex
	sampleRng    *rand.Rand

	meta atomic.Pointer[metaPoint]

	// conflicts counts the baggage slot contents this process's advice
	// dropped for a mismatched spec, at pack or unpack, while telemetry
	// is attached.
	conflicts atomic.Pointer[telemetry.Counter]

	controlSub bus.Subscription
}

// SetTelemetry attaches self-telemetry to the agent. Every snapshot of t
// then carries each counter of Stats under its metric name (StatFields),
// read from Stats itself, so the registry and the heartbeat cannot
// disagree; plus the gauges "agent.queries" and "agent.reports.buffered",
// read from the installed queries and the outage buffer; and the counter
// "baggage.merge.conflicts" (see NotePackStats). Call it once per agent.
func (a *Agent) SetTelemetry(t *telemetry.Registry) {
	a.conflicts.Store(t.Counter("baggage.merge.conflicts"))
	t.Source(func(snap *telemetry.Snapshot) {
		s := a.Stats()
		for i, f := range StatFields {
			snap.Counters[f.Metric] = s.Values()[i]
		}
		snap.Gauges["agent.queries"] = int64(len(*a.queriesView.Load()))
		snap.Gauges["agent.reports.buffered"] = int64(a.Buffered())
	})
}

// EnableMetaTracepoint defines MetaReportTracepoint in this process's
// registry and arms it: every report the agent publishes then crosses the
// tracepoint (outside the agent's locks), so queries can observe the
// tracer's own reporting. Returns the tracepoint.
func (a *Agent) EnableMetaTracepoint() *tracepoint.Tracepoint {
	tp := a.reg.Define(MetaReportTracepoint, MetaReportExports...)
	a.meta.Store(&metaPoint{tp: tp, proc: tracepoint.WithProc(context.Background(), a.proc)})
	return tp
}

// metaPoint is the armed meta-tracepoint and the process identity its
// crossings carry, built once so that a flush adds only a baggage node.
type metaPoint struct {
	tp   *tracepoint.Tracepoint
	proc context.Context
}

// EnableSpans turns on causal span capture in this process: a bounded
// ring Recorder (see internal/spans) is attached to the registry as the
// span sink, and every Flush drains it into SpanBatch frames on
// TraceTopic — plus per-query ExplainStats snapshots. seed's high 32 bits
// must be unique per recorder and its low 32 zero, since the recorder
// counts span ids up from it: the pivot layer draws them at random, a
// simulated cluster uses procID<<32. capacity bounds the ring (<= 0
// selects DefaultSpanBuffer).
func (a *Agent) EnableSpans(seed uint64, capacity int) *spans.Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanBuffer
	}
	rec := spans.NewRecorder(seed, capacity, func(st baggage.PackStats) { a.NotePackStats(nil, st) })
	a.recorder.Store(rec)
	a.reg.SetSpanSink(rec)
	return rec
}

type queryState struct {
	programs []*advice.Program
	// acc is the query's one accumulator, stored under a.mu before its
	// first emitting program is woven and never replaced (Drain hands over
	// its contents, not the accumulator). Fires load it without a.mu, and a
	// fire of advice unwoven since may reach a reinstalled query before its
	// accumulator exists, hence the atomic.
	acc      atomic.Pointer[advice.Accumulator]
	woven    []weave
	wovenTPs map[string]bool

	limits advice.Limits
	lease  Lease
	tenant string // owning tenant frontend; "" = primary
	drops  baggage.DropSet
	sample *sampled // nil = exact
}

type weave struct {
	tp string
	a  tracepoint.Advice
}

// New starts an agent for one process. The agent subscribes to the control
// topic immediately. With a simulation environment it begins a virtual-time
// reporting loop; with env == nil (a real, non-simulated process) reports
// are produced by explicit Flush calls or a wall-clock ticker the embedder
// runs.
func New(env *simtime.Env, proc tracepoint.ProcInfo, reg *tracepoint.Registry, b *bus.Bus, interval time.Duration) *Agent {
	if interval <= 0 {
		interval = DefaultInterval
	}
	a := &Agent{
		env: env, proc: proc, reg: reg, bus: b, interval: interval,
		queries: make(map[string]*queryState), retainCap: DefaultRetention,
	}
	a.nextTick = a.now() + interval
	a.rebuildViewLocked()
	a.controlSub = b.Subscribe(ControlTopic, a.onControl)
	// Weave standing queries into tracepoints defined after installation.
	reg.OnDefine(func(*tracepoint.Tracepoint) { a.reweave() })
	if env != nil {
		env.Go(a.reportLoop)
	}
	return a
}

// now returns the agent's report timestamp: virtual time under simulation,
// wall-clock time since the Unix epoch otherwise.
func (a *Agent) now() time.Duration {
	if a.env != nil {
		return a.env.Now()
	}
	return time.Duration(time.Now().UnixNano())
}

// reweave attempts to weave any installed programs whose tracepoints have
// since become defined in this process.
func (a *Agent) reweave() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, qs := range a.queries {
		a.weaveLocked(qs)
	}
}

// Deliver injects a control message directly (used to replay standing
// queries to agents that start after installation).
func (a *Agent) Deliver(msg any) { a.onControl(msg) }

// onControl handles weave/unweave instructions.
func (a *Agent) onControl(msg any) {
	switch m := msg.(type) {
	case Install:
		a.install(m)
	case Uninstall:
		a.uninstall(m.QueryID)
	case Renew:
		a.renew(m)
	}
}

func (a *Agent) install(m Install) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.queries[m.QueryID]; ok {
		return // already installed
	}
	qs := &queryState{programs: m.Programs, wovenTPs: make(map[string]bool), limits: m.Limits, tenant: m.Tenant}
	qs.lease.Renew(m.TTL, a.now(), 1)
	for _, prog := range m.Programs {
		if r := advice.ClampRate(prog.SampleRate); r > 0 {
			qs.sample = &sampled{id: m.QueryID, base: r, eff: r}
			break
		}
	}
	a.queries[m.QueryID] = qs
	a.weaveLocked(qs)
	a.rebuildViewLocked()
}

// rebuildViewLocked republishes the copy-on-write query snapshot after a
// membership change. Caller holds a.mu (New calls it before the agent is
// shared, which is equivalent). The sampling view is rebuilt alongside,
// sorted by query id so decision minting is deterministic, the tenant
// usage snapshot, whose query counts may have moved, goes stale, and the
// earliest lease deadline is found again.
func (a *Agent) rebuildViewLocked() {
	a.usageStale = true
	a.leasesChangedLocked()
	view := make(map[string]*queryState, len(a.queries))
	var sv []*sampled
	for id, qs := range a.queries {
		view[id] = qs
		if qs.sample != nil {
			sv = append(sv, qs.sample)
		}
	}
	sort.Slice(sv, func(i, j int) bool { return sv[i].id < sv[j].id })
	a.queriesView.Store(&view)
	a.samplingView.Store(&sv)
}

// SetAccumulatorShards does nothing; it stays for bench/'s layer benchmarks.
func (a *Agent) SetAccumulatorShards(int) {}

// SetReportTopic redirects the agent's report batches to topic — a
// combiner tree assigns each agent its hash-partition topic here, so no
// single process subscribes to every agent's traffic. Empty restores
// ResultsTopic. Heartbeats, spans, and quarantine notices keep their own
// topics; only result frames are partitioned.
func (a *Agent) SetReportTopic(topic string) {
	if topic == "" || topic == ResultsTopic {
		a.reportTopic.Store(nil)
		return
	}
	a.reportTopic.Store(&topic)
}

// ReportTopic returns the topic report batches are currently published on.
func (a *Agent) ReportTopic() string {
	if t := a.reportTopic.Load(); t != nil {
		return *t
	}
	return ResultsTopic
}

// weaveLocked weaves the query's programs into every tracepoint currently
// defined in this process. Caller holds a.mu.
func (a *Agent) weaveLocked(qs *queryState) {
	for _, prog := range qs.programs {
		if qs.wovenTPs[prog.Tracepoint] {
			continue
		}
		if prog.Quarantined() {
			continue // the breaker tripped; never re-weave
		}
		if a.reg.Lookup(prog.Tracepoint) == nil {
			continue // tracepoint not (yet) present in this process
		}
		if prog.Emit != nil && qs.acc.Load() == nil {
			acc := advice.NewAccumulator(prog.Emit)
			acc.SetLimits(qs.limits)
			qs.acc.Store(acc)
		}
		adv := &advice.Advice{Prog: prog, Emitter: a}
		if err := a.reg.Weave(prog.Tracepoint, adv); err != nil {
			continue
		}
		qs.wovenTPs[prog.Tracepoint] = true
		qs.woven = append(qs.woven, weave{tp: prog.Tracepoint, a: adv})
	}
}

func (a *Agent) uninstall(queryID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	qs, ok := a.queries[queryID]
	if !ok {
		return
	}
	for _, w := range qs.woven {
		a.reg.Unweave(w.tp, w.a)
	}
	if acc := qs.acc.Load(); acc != nil {
		raws, overflowed := acc.CapCounts()
		a.live.RawsDropped.Add(raws)
		a.live.GroupsOverflowed.Add(overflowed)
	}
	delete(a.queries, queryID)
	a.rebuildViewLocked()
}

// The agent is the advice host: every note advice makes reaches it.
var _ advice.Host = (*Agent)(nil)

// EmitTuple implements advice.Emitter: process-local aggregation. This is
// the hot path — every advice fire that reaches EMIT lands here — so it
// takes no agent lock: the query resolves through the copy-on-write view,
// and the tuple folds into the query's accumulator under that
// accumulator's own lock.
func (a *Agent) EmitTuple(p *advice.Program, w tuple.Tuple) { a.EmitTupleWeighted(p, w, 1) }

// NoteQuarantine implements advice.Host: the program's
// circuit breaker tripped in this process. The agent unweaves just that
// program (the query's advice at other tracepoints keeps running),
// records the event, and publishes a pt.quarantine notice — all outside
// its locks, since the breaker fires from inside a tracepoint crossing.
func (a *Agent) NoteQuarantine(p *advice.Program, reason string) {
	var adv tracepoint.Advice
	a.mu.Lock()
	if qs, ok := a.queries[p.QueryID]; ok {
		for _, w := range qs.woven {
			if wa, ok := w.a.(*advice.Advice); ok && wa.Prog == p {
				adv = w.a
				break
			}
		}
	}
	a.mu.Unlock()
	if adv != nil {
		a.reg.Unweave(p.Tracepoint, adv)
	}
	a.live.Quarantines.Add(1)
	a.bus.Publish(QuarantineTopic, Quarantine{
		QueryID:    p.QueryID,
		Tracepoint: p.Tracepoint,
		Host:       a.proc.Host,
		ProcName:   a.proc.ProcName,
		Reason:     reason,
		Time:       a.now(),
	})
}

// NoteBaggageDrops implements advice.Host: advice observed baggage
// eviction tombstones for its query. Tombstones are globally unique per
// evicted group, so a dedup set per query makes the next report's Drops
// exact even when many fires see the same tombstones.
func (a *Agent) NoteBaggageDrops(p *advice.Program, recs []baggage.DropRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	qs, ok := a.queries[p.QueryID]
	if !ok {
		return
	}
	qs.drops.Add(recs...)
}

// NotePackStats implements advice.Host: budget evictions performed at
// this process's pack sites, and spec conflicts met at its packs and
// unpacks. Each happens at exactly one site, so summing across agents is
// exact.
func (a *Agent) NotePackStats(p *advice.Program, st baggage.PackStats) {
	a.live.BaggageGroupsDropped.Add(st.EvictedGroups)
	a.live.BaggageTuplesDropped.Add(st.EvictedTuples)
	a.live.BaggageBytesDropped.Add(st.EvictedBytes)
	if c := a.conflicts.Load(); c != nil && st.Conflicts > 0 {
		c.Add(st.Conflicts)
	}
}

// Installed reports whether the query is currently installed.
func (a *Agent) Installed(queryID string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.queries[queryID]
	return ok
}

// ExplainAnalyze renders every query installed in this process as EXPLAIN
// ANALYZE does: each program woven here, annotated with its live operator
// counters (advice.Program.AnnotatedString). Over a TCP bus each worker
// decodes its own Program copies, so their counters are readable only
// here.
func (a *Agent) ExplainAnalyze() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.queries))
	for id := range a.queries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "EXPLAIN ANALYZE %s in %s/%s:\n", id, a.proc.Host, a.proc.ProcName)
		for _, prog := range a.queries[id].programs {
			if a.reg.Lookup(prog.Tracepoint) != nil {
				fmt.Fprintf(&b, "\nat %s:\n%s\n", prog.Tracepoint, prog.AnnotatedString())
			}
		}
	}
	return b.String()
}

// Stats returns the agent's activity counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	s := Load(&a.live)
	for _, qs := range a.queries {
		if acc := qs.acc.Load(); acc != nil {
			raws, overflowed := acc.CapCounts()
			s.RawsDropped += raws
			s.GroupsOverflowed += overflowed
		}
	}
	a.mu.Unlock()
	lowest := 1.0
	a.rngMu.Lock()
	for _, sq := range *a.samplingView.Load() {
		lowest = math.Min(lowest, sq.eff)
	}
	a.rngMu.Unlock()
	s.SampleRateMilli = int64(math.Round(lowest * 1000))
	if rec := a.recorder.Load(); rec != nil {
		s.SpansCaptured = rec.Captured()
		s.SpansDropped = rec.Dropped()
	}
	return s
}

// Close unsubscribes the agent from the control topic and unweaves all
// advice.
func (a *Agent) Close() {
	a.bus.Unsubscribe(a.controlSub)
	a.mu.Lock()
	ids := make([]string, 0, len(a.queries))
	for id := range a.queries {
		ids = append(ids, id)
	}
	a.mu.Unlock()
	for _, id := range ids {
		a.uninstall(id)
	}
}
