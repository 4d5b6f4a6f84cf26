package agent

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Counters declares the heartbeat's counters, once: a field here is the
// whole of a counter's plumbing. Field order is the wire order (append
// only: a decoder reads a shorter frame's missing tail as zero and skips a
// longer frame's extras, so new fields go last and none is ever removed or
// moved). The metric tag is the counter's telemetry name; the col tag is
// its column in ptstat's agents table, and a field without one has the
// reason in its group's comment. internal/wire, core.RenderStatus and
// Agent.SetTelemetry all walk StatFields and Values; none of them names a
// counter.
//
// T is int64 in a snapshot (Stats) and atomic.Int64 in an agent's live
// counts, so both are addressed by the same field names.
type Counters[T any] struct {
	TuplesEmitted T `metric:"agent.tuples" col:"tuples"`   // advice EMIT operations executed
	RowsReported  T `metric:"agent.rows" col:"rows"`       // aggregated rows published to the bus
	Reports       T `metric:"agent.reports" col:"reports"` // per-query reports published
	Batches       T `metric:"agent.batches" col:"batches"` // ReportBatch frames published (coalesced reports)

	// Resilience counters: every report the agent ever published is either
	// merged at the frontend, still buffered, or counted in ReportsDropped —
	// nothing disappears silently. ReportsRetained has no column: it is
	// transient buffer occupancy, and replay/drops show the outcome.
	ReportsRetained T `metric:"agent.reports.retained"`              // reports buffered during bus outages
	ReportsReplayed T `metric:"agent.reports.replayed" col:"replay"` // buffered reports replayed after reconnect
	ReportsDropped  T `metric:"agent.reports.dropped" col:"drops"`   // reports lost to ring-buffer overflow
	Reconnects      T `metric:"agent.reconnects" col:"reconn"`       // bus link reconnections observed

	// Governance counters: every limit hit is accounted — a row, group, or
	// byte the tracer gave up is counted here, never silently lost. Of the
	// three baggage figures only bytes has a column (bagdrop): it is the
	// representative eviction figure.
	LeasesExpired        T `metric:"agent.leases.expired" col:"expired"`        // queries auto-uninstalled on lease expiry
	Quarantines          T `metric:"agent.quarantines" col:"quarant"`           // programs unwoven by the circuit breaker
	RawsDropped          T `metric:"agent.raws.dropped" col:"rawdrop"`          // raw rows FIFO-evicted by accumulator caps
	GroupsOverflowed     T `metric:"agent.groups.overflowed" col:"ovflow"`      // rows folded into accumulator overflow groups
	BaggageGroupsDropped T `metric:"agent.baggage.dropped.groups"`              // baggage groups evicted by budgets (pack side)
	BaggageTuplesDropped T `metric:"agent.baggage.dropped.tuples"`              // baggage tuples evicted by budgets (pack side)
	BaggageBytesDropped  T `metric:"agent.baggage.dropped.bytes" col:"bagdrop"` // baggage bytes evicted by budgets (pack side)

	// Span-capture counters (zero unless EnableSpans was called). SpanBatches
	// has no column: it is a framing detail, spans/spandrop carry the signal.
	SpansCaptured T `metric:"agent.spans.captured" col:"spans"`   // spans recorded at tracepoint crossings
	SpansDropped  T `metric:"agent.spans.dropped" col:"spandrop"` // spans overwritten in the ring before shipping
	SpanBatches   T `metric:"agent.spans.batches"`                // SpanBatch frames published on TraceTopic

	// Combiner counters (zero for ordinary agents). A combiner tier
	// heartbeats with the same Stats shape so ptstat shows the whole
	// aggregation tree in one table: reports merged in from downstream and
	// frames forwarded upstream. Merged − forwarded traffic is the tree's
	// whole point; both sides are counted so the reduction is auditable.
	CombinerReportsMerged T `metric:"combiner.reports.merged" col:"cmerged"` // downstream reports folded into tier state
	CombinerFramesOut     T `metric:"combiner.frames.out" col:"cfwd"`        // merged frames forwarded upstream

	// Sampling counters. SampledOut counts crossings this process's advice
	// suppressed because the request's sampling decision said no — the
	// sampled-rate half of drop accounting (suppressed + reported-weight
	// reconciles against the unsampled total). SampleRateMilli is the
	// lowest adaptive effective rate across this agent's sampled queries,
	// in thousandths: 1000 means everything runs exact (no backoff, or no
	// sampled queries); 0 appears only in frames from combiner tiers,
	// which do not sample.
	SampledOut      T `metric:"agent.sampled.out" col:"smplout"`
	SampleRateMilli T `metric:"agent.sample.rate.milli" col:"srate"`

	// ReportsRejected counts downstream reports a combiner tier's merger
	// refused as malformed (zero for ordinary agents): skipped whole, in
	// neither CombinerReportsMerged nor anything forwarded.
	ReportsRejected T `metric:"combiner.reports.rejected" col:"rejected"`
}

// Stats is a snapshot of an agent's (or combiner tier's) counters: the
// body of its heartbeat, the frontend's health view, and the figure the
// tuple-traffic experiments read (Fig 6, and the §4 claim that Q2 drops
// from ~600 emitted tuples/s to 6 reported tuples/s per DataNode).
type Stats = Counters[int64]

// NumStats is the number of counters a heartbeat carries.
const NumStats = int(unsafe.Sizeof(Stats{}) / unsafe.Sizeof(int64(0)))

// The live form must lay out exactly like the snapshot for Values to index
// both (a constant index out of range fails the build otherwise).
var _ = [1]struct{}{}[unsafe.Sizeof(Counters[atomic.Int64]{})-unsafe.Sizeof(Stats{})]

// Values views the counters as an array in declaration order; element i
// belongs to StatFields[i]. Sound because every field has type T (the
// declaration admits nothing else for a type parameter, and StatFields
// checks the instantiation), so the struct is NumStats Ts with no padding.
func (c *Counters[T]) Values() *[NumStats]T {
	return (*[NumStats]T)(unsafe.Pointer(c))
}

// Load snapshots live counters: an agent's own, or a combiner tier's,
// which counts in the heartbeat's declaration too.
func Load(live *Counters[atomic.Int64]) Stats {
	var s Stats
	src, dst := live.Values(), s.Values()
	for i := range src {
		dst[i] = src[i].Load()
	}
	return s
}

// StatField describes one counter of Stats.
type StatField struct {
	Name   string // Go field name
	Metric string // telemetry name
	Column string // ptstat agents-table column; "" = not rendered
}

// StatFields describes Stats' counters in declaration (= wire) order.
var StatFields = func() (fs [NumStats]StatField) {
	t := reflect.TypeOf(Stats{})
	for i := range fs {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Int64 || f.Tag.Get("metric") == "" {
			panic(fmt.Sprintf("agent: Stats.%s must be a counter of type T with a metric tag", f.Name))
		}
		fs[i] = StatField{Name: f.Name, Metric: f.Tag.Get("metric"), Column: f.Tag.Get("col")}
	}
	return fs
}()
