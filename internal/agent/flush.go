package agent

import (
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/spans"
	"repro/internal/tuple"
)

// reportLoop publishes partial results every interval until the simulation
// ends.
func (a *Agent) reportLoop() {
	for !a.env.Done() {
		a.env.Sleep(a.interval)
		a.Flush()
	}
}

// flushed is what one Flush drained from one query.
type flushed struct {
	id      string
	groups  []*advice.Group // drained, exclusively owned; nil when nothing was folded in
	raws    []tuple.Tuple
	drops   []baggage.DropRecord
	tuples  int64
	tenant  string
	flushNS int64
}

// Flush publishes the current partial results immediately (also called by
// tests and by experiment harnesses at shutdown to avoid losing the last
// interval): drain every query, account tenant usage, build the reports,
// publish them — then the trace frames, the heartbeat, and last the
// agent.Report meta-tracepoint crossings.
func (a *Agent) Flush() {
	a.expireLeases()
	a.tickSampling()

	a.mu.Lock()
	out := a.drainLocked()
	nQueries := len(a.queries)
	usage := a.tenantUsageLocked(out)
	a.mu.Unlock()

	// Deterministic order across queries.
	slices.SortFunc(out, func(x, y flushed) int { return strings.Compare(x.id, y.id) })
	now := a.now()
	reports := a.buildReports(out, now)
	a.publishBatches(reports)
	if rec := a.recorder.Load(); rec != nil {
		a.publishSpans(rec, now)
		a.publishExplain(out, now)
	}
	a.publishHealth(nQueries, usage)
	// Cross the agent.Report meta-tracepoint last, with no agent locks
	// held: its woven advice re-enters the agent via EmitTuple, and the
	// tuples it emits belong to the next interval.
	if m := a.meta.Load(); m != nil {
		ctx := baggage.ExtractContext(m.proc, nil)
		for i, f := range out {
			r := &reports[i]
			m.tp.Here(ctx, f.id, int64(len(r.Groups)+len(r.Raws)), f.tuples)
		}
	}
}

// drainLocked takes every query's accumulated state and tombstones. Drain
// hands over the accumulator's merger under the accumulator's lock, with
// the count of the tuples folded into it; each result is exclusively ours,
// so everything after — including bus publication — happens with no agent
// lock held and no cloning (snapshot-then-encode). Caller holds a.mu.
func (a *Agent) drainLocked() []flushed {
	var out []flushed
	timed := a.recorder.Load() != nil // only publishExplain reads flushNS
	for id, qs := range a.queries {
		var start time.Time
		if timed {
			start = time.Now()
		}
		f := flushed{id: id, tenant: qs.tenant}
		if acc := qs.acc.Load(); acc != nil {
			f.groups, f.raws, f.tuples = acc.Drain()
		}
		if f.tuples == 0 && len(qs.drops) == 0 {
			continue
		}
		if out == nil {
			out = make([]flushed, 0, len(a.queries))
		}
		f.drops, qs.drops = qs.drops.Sorted(), nil
		if timed {
			f.flushNS = int64(time.Since(start))
		}
		out = append(out, f)
	}
	return out
}

// tenantUsageLocked does the per-tenant quota accounting, here on the cold
// path so EmitTuple never sees any of it: fold the tuples this flush
// drained into each owning tenant's cumulative total, then snapshot live
// query counts per tenant. The snapshot is rebuilt only when a total or
// the installed query set changed since the last one; otherwise the last
// one is returned again. A snapshot is published, so it is never written
// after it is returned. Caller holds a.mu.
func (a *Agent) tenantUsageLocked(out []flushed) []TenantQuota {
	for _, f := range out {
		if f.tenant == "" || f.tuples == 0 {
			continue
		}
		if a.tenantTuples == nil {
			a.tenantTuples = make(map[string]int64)
		}
		a.tenantTuples[f.tenant] += f.tuples
		a.usageStale = true
	}
	if !a.usageStale || len(a.tenantTuples) == 0 {
		return a.usage
	}
	a.usageStale = false
	queriesBy := make(map[string]int64)
	for _, qs := range a.queries {
		if qs.tenant != "" {
			queriesBy[qs.tenant]++
		}
	}
	usage := make([]TenantQuota, 0, len(a.tenantTuples))
	for tenant, tuples := range a.tenantTuples {
		usage = append(usage, TenantQuota{Tenant: tenant, Queries: queriesBy[tenant], Tuples: tuples})
	}
	sort.Slice(usage, func(i, j int) bool { return usage[i].Tenant < usage[j].Tenant })
	a.usage = usage
	return usage
}

// buildReports renders the drained state as one Report per query and
// counts what is about to be published.
func (a *Agent) buildReports(out []flushed, now time.Duration) []Report {
	reports := make([]Report, 0, len(out))
	for _, f := range out {
		r := Report{
			QueryID:  f.id,
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     now,
			Groups:   f.groups,
			Raws:     f.raws,
			Drops:    f.drops,
		}
		a.live.RowsReported.Add(int64(len(r.Groups) + len(r.Raws)))
		a.live.Reports.Add(1)
		reports = append(reports, r)
	}
	return reports
}

// publishHealth heartbeats on HealthTopic (reports or not), followed by
// the tenant quota frame while any tenant-owned query has emitted here.
func (a *Agent) publishHealth(nQueries int, usage []TenantQuota) {
	a.bus.Publish(HealthTopic, Heartbeat{
		Host:     a.proc.Host,
		ProcName: a.proc.ProcName,
		Time:     a.now(),
		Interval: a.interval,
		Queries:  nQueries,
		Stats:    a.Stats(),
	})
	if len(usage) > 0 {
		a.bus.Publish(HealthTopic, TenantUsage{
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     a.now(),
			Usage:    usage,
		})
	}
}

// SplitBatches cuts items into consecutive runs and hands each to publish,
// starting a new run whenever adding the next item would push the summed
// size past DefaultBatchBytes. A single item larger than the cap still
// ships, alone in its own run — the cap splits, it never drops. This is
// the one batch-splitting loop: agents' report and span frames and
// combiners' upstream frames all go through it. Runs alias items.
func SplitBatches[T any](items []T, size func(*T) int, publish func([]T)) {
	start, sum := 0, 0
	for i := range items {
		sz := size(&items[i])
		if i > start && sum+sz > DefaultBatchBytes {
			publish(items[start:i:i])
			start, sum = i, 0
		}
		sum += sz
	}
	if start < len(items) {
		publish(items[start:])
	}
}

// publishBatches coalesces this interval's reports into size-capped
// ReportBatch frames on the agent's report topic (ResultsTopic unless
// SetReportTopic partitioned it).
func (a *Agent) publishBatches(reports []Report) {
	topic := a.ReportTopic()
	SplitBatches(reports, ReportSize, func(batch []Report) {
		a.live.Batches.Add(1)
		a.bus.Publish(topic, ReportBatch{Reports: batch})
	})
}

// publishSpans drains the span ring into size-capped SpanBatch frames on
// TraceTopic.
func (a *Agent) publishSpans(rec *spans.Recorder, now time.Duration) {
	SplitBatches(rec.Drain(), spanSize, func(batch []spans.Span) {
		a.live.SpanBatches.Add(1)
		a.bus.Publish(TraceTopic, SpanBatch{
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     now,
			Spans:    batch,
		})
	})
}

// spanSize approximates one span's encoded payload size (same arithmetic
// size model as ReportSize; framing varints are deliberately undercounted).
func spanSize(sp *spans.Span) int {
	return len(sp.Tracepoint) + len(sp.Host) + len(sp.ProcName) + 8*len(sp.Parents) + 36
}

// ReportSize approximates one report's encoded payload size using the
// arithmetic size model (tuple.SizeTuple, agg.State.EncodedSize) — no
// scratch encodings. It deliberately undercounts small framing varints;
// the batch cap is approximate by contract.
func ReportSize(r *Report) int {
	n := len(r.QueryID) + len(r.Host) + len(r.ProcName) + 16
	for _, g := range r.Groups {
		n += len(g.Key) + tuple.SizeTuple(g.Rep)
		for i := range g.States {
			n += g.States[i].EncodedSize()
		}
	}
	for _, t := range r.Raws {
		n += tuple.SizeTuple(t)
	}
	for _, d := range r.Drops {
		n += len(d.Slot) + len(d.Key) + 4
	}
	return n
}

// publishExplain snapshots every installed query's per-operator advice
// counters into ExplainStats frames on TraceTopic. FlushNS carries the
// per-query drain time measured in the surrounding Flush (zero for queries
// that had nothing to drain this interval).
func (a *Agent) publishExplain(out []flushed, now time.Duration) {
	flushNS := make(map[string]int64, len(out))
	for _, f := range out {
		flushNS[f.id] = f.flushNS
	}
	type snap struct {
		id    string
		progs []*advice.Program
	}
	a.mu.Lock()
	qsnaps := make([]snap, 0, len(a.queries))
	for id, qs := range a.queries {
		qsnaps = append(qsnaps, snap{id: id, progs: qs.programs})
	}
	a.mu.Unlock()
	sort.Slice(qsnaps, func(i, j int) bool { return qsnaps[i].id < qsnaps[j].id })
	for _, q := range qsnaps {
		es := ExplainStats{
			QueryID:  q.id,
			Host:     a.proc.Host,
			ProcName: a.proc.ProcName,
			Time:     now,
			FlushNS:  flushNS[q.id],
		}
		for _, prog := range q.progs {
			if a.reg.Lookup(prog.Tracepoint) != nil { // else: not present in this process
				es.Ops = append(es.Ops, opStats(prog))
			}
		}
		if len(es.Ops) > 0 {
			a.bus.Publish(TraceTopic, es)
		}
	}
}

// opStats snapshots one program's live operator counters.
func opStats(prog *advice.Program) OpStats {
	return OpStats{Tracepoint: prog.Tracepoint, Costs: prog.CostSnapshot()}
}
