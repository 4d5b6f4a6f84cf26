package agent

// The bus vocabulary: topics, message types and the Stats shape agents and
// combiner tiers heartbeat. They live in package agent (not beside their
// codecs) because internal/wire, internal/core, internal/combiner and
// bench/ all import them from here.

import (
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/spans"
	"repro/internal/tuple"
)

// Topics used on the message bus.
const (
	ControlTopic = "pt.control"
	ResultsTopic = "pt.results"
	// HealthTopic carries agent Heartbeats. It is separate from
	// ResultsTopic so health traffic never perturbs result consumers.
	HealthTopic = "pt.health"
	// StatusRequestTopic/StatusResponseTopic carry frontend status
	// queries (see core.PivotTracing.Status and cmd/ptstat).
	StatusRequestTopic  = "pt.status.req"
	StatusResponseTopic = "pt.status.resp"
	// QuarantineTopic carries Quarantine notices: an agent tripped a
	// query's circuit breaker and unwove its advice.
	QuarantineTopic = "pt.quarantine"
	// TraceTopic carries causal-trace observability frames: SpanBatch
	// (captured spans, best-effort) and ExplainStats (per-operator advice
	// counters for EXPLAIN ANALYZE). Separate from ResultsTopic so trace
	// volume never competes with query results, and dropped trace frames
	// are not retained/replayed — spans are strictly best-effort.
	TraceTopic = "pt.trace"
	// tenantResultsPrefix prefixes the per-tenant result topics a combiner
	// tree routes merged frames to (see TenantResultsTopic).
	tenantResultsPrefix = "pt.results.t."
)

// TenantResultsTopic is the per-tenant results topic: the combiner tier
// that delivers to frontends publishes a tenant's merged report frames
// here, and only
// that tenant's frontend subscribes — so per-frontend inbound traffic
// scales with the tree, not with the cluster.
func TenantResultsTopic(tenant string) string {
	return tenantResultsPrefix + tenant
}

// MetaReportTracepoint is the meta-tracepoint crossed once per report the
// agent publishes, letting Pivot Tracing queries observe Pivot Tracing's
// own reporting (e.g. From r In agent.Report GroupBy r.host Select
// r.host, SUM(r.tuples)). It is opt-in via Agent.EnableMetaTracepoint.
const MetaReportTracepoint = "agent.Report"

// MetaReportExports are the declared exports of MetaReportTracepoint.
var MetaReportExports = []string{"query", "rows", "tuples"}

// Heartbeat is the agent's periodic liveness beacon, published on
// HealthTopic at every flush (reports or not). Time is the agent's own
// clock; Interval is its reporting cadence, so the frontend can judge
// staleness relative to how often this agent should speak.
type Heartbeat struct {
	Host     string
	ProcName string
	Time     time.Duration
	Interval time.Duration
	Queries  int
	Stats    Stats
}

// StatusRequest asks the frontend for its status text (cmd/ptstat sends
// these over the bus); ID correlates the response.
type StatusRequest struct {
	ID string
}

// StatusResponse is the frontend's rendered status.
type StatusResponse struct {
	ID   string
	Text string
}

// Install instructs agents to weave a query's advice programs. Each agent
// weaves the programs whose tracepoints exist in its process.
type Install struct {
	QueryID  string
	Programs []*advice.Program
	// TTL is the query's lease duration: if the frontend stops renewing
	// (see Renew), agents auto-uninstall the query TTL after the last
	// renewal, so a crashed frontend never leaves instrumentation
	// resident. Zero means no lease (immortal), preserving direct
	// installs by tests and embedders that manage lifecycle themselves.
	TTL time.Duration
	// Limits bounds the agent-side accumulator for this query.
	Limits advice.Limits
	// Tenant names the frontend that owns this query ("" = the primary
	// frontend). Agents account per-tenant tuple usage against it, and the
	// delivering combiner tier learns the query→tenant mapping from it.
	Tenant string
}

// Uninstall instructs agents to remove a query's advice.
type Uninstall struct {
	QueryID string
}

// Renew extends the lease of the listed queries. The frontend publishes
// these periodically on the control topic; TTL == 0 keeps each query's
// current lease duration.
type Renew struct {
	QueryIDs []string
	TTL      time.Duration
}

// Quarantine is published on QuarantineTopic when an agent trips a
// query's circuit breaker: the offending program is unwoven in that
// process while the rest of the query keeps running.
type Quarantine struct {
	QueryID    string
	Tracepoint string
	Host       string
	ProcName   string
	Reason     string
	Time       time.Duration
}

// DefaultLease is the lease TTL the frontend attaches to installs unless
// the query specifies its own (plan.Options.Lease).
const DefaultLease = 30 * time.Second

// Report is one interval's partial results from one process for one query.
type Report struct {
	QueryID  string
	Host     string
	ProcName string
	Time     time.Duration
	Groups   []*advice.Group
	Raws     []tuple.Tuple
	// Drops are baggage eviction tombstones observed by this query's
	// advice since the last report: results the budget truncated. The
	// frontend unions them (tombstones are globally unique per evicted
	// group) so reported + dropped reconciles against the true total.
	Drops []baggage.DropRecord
}

// ReportBatch coalesces one flush interval's Reports from one process into
// a single bus frame, cutting frames and syscalls when many queries are
// installed. Batches are split so each frame's approximate payload stays
// under DefaultBatchBytes (see SplitBatches). It is the only frame results
// travel in (outage replay sends one-report batches); consumers treat a
// batch exactly as its constituent Reports in order, each of which names
// its sender.
type ReportBatch struct {
	Reports []Report
}

// DefaultBatchBytes is the approximate size cap of one ReportBatch or
// SpanBatch frame's payload, at agents and combiner tiers alike.
const DefaultBatchBytes = 256 << 10

// SpanBatch coalesces one flush interval's captured spans from one process
// into a single TraceTopic frame, mirroring ReportBatch's size-capped
// splitting. Spans are best-effort: a dropped frame is never retained.
type SpanBatch struct {
	Host     string
	ProcName string
	Time     time.Duration
	Spans    []spans.Span
}

// OpStats is one advice program's live operator counters, snapshot at
// flush time for EXPLAIN ANALYZE. Values are cumulative since install.
type OpStats struct {
	Tracepoint string
	advice.Costs[int64]
}

// ExplainStats carries one query's per-operator counters from one process,
// published on TraceTopic at every flush while span capture is enabled.
// FlushNS is the wall-clock nanoseconds the agent spent draining and
// encoding this query's partial results in the flush that produced this
// snapshot — the agent-side "merge time" of EXPLAIN ANALYZE.
type ExplainStats struct {
	QueryID  string
	Host     string
	ProcName string
	Time     time.Duration
	FlushNS  int64
	Ops      []OpStats
}

// DefaultInterval is the agent reporting interval (the paper's default).
const DefaultInterval = time.Second

// DefaultRetention is the default capacity of the agent's outage ring
// buffer (reports retained per process while the bus link is down).
const DefaultRetention = 64

// DefaultSpanBuffer is the default span ring capacity per process.
const DefaultSpanBuffer = 4096

// TenantQuota is one tenant's resource usage at one process, as accounted
// by its agent: live queries owned by the tenant and cumulative tuples its
// queries emitted there. Published inside TenantUsage frames.
type TenantQuota struct {
	Tenant  string
	Queries int64
	Tuples  int64
}

// TenantUsage carries one process's per-tenant quota counters, published
// on HealthTopic at each flush while any tenant-owned query is installed.
// The primary frontend aggregates these into core.Status's tenants table,
// making the fair-share split observable on the wire.
type TenantUsage struct {
	Host     string
	ProcName string
	Time     time.Duration
	Usage    []TenantQuota // sorted by tenant
}
