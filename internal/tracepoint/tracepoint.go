// Package tracepoint implements Pivot Tracing's tracepoints: named locations
// in system code where instrumentation (advice) can be woven and unwoven at
// runtime.
//
// The paper's Java prototype rewrites method bytecode dynamically. Go has no
// runtime code rewriting, so this implementation uses compile-time hooks: the
// instrumented system calls Tracepoint.Here at the locations a tracepoint
// identifies. Which advice runs — and whether anything at all happens — is
// fully dynamic. A tracepoint with no woven advice costs a single atomic
// pointer load (the paper's "zero overhead when disabled" property, modulo
// the conditional check discussed in its §8 for hard-coded tracepoints).
//
// A woven crossing builds only the tuple positions its advice read: advice
// that states its reads (Observer) leaves every other position null, and
// advice that states none gets every position.
package tracepoint

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tuple"
)

// DefaultExports are the variables every tracepoint exports in addition to
// its declared exports (§3 of the paper).
var DefaultExports = tuple.Schema{"host", "time", "procName", "procId", "tracepoint"}

// Advice is instrumentation woven at a tracepoint. Implementations live in
// package advice; the interface keeps this package dependency-free.
type Advice interface {
	// Invoke runs the advice for one tracepoint crossing. vals holds the
	// exported tuple (defaults then declared exports) in the tracepoint's
	// schema order: every position when the advice is not an Observer,
	// else at least the positions it observes, the others possibly null.
	// vals is only valid for the duration of the call — it is recycled by
	// the tracepoint after every woven advice has run — so implementations
	// that retain values must copy them (e.g. tuple.Tuple.Clone or
	// Project).
	Invoke(ctx context.Context, vals tuple.Tuple)
}

// Observer is optionally implemented by advice that reads only some
// positions of the exported tuple. Observed returns them as a mask, bit i
// for position i; an advice that reads a position past 63 returns every
// bit. A crossing fills only the positions some woven advice observes
// (host, procName and procId together, which one lookup gives), or every
// position if any woven advice is not an Observer, and leaves the others
// null.
type Observer interface {
	Observed() uint64
}

// allPositions is the read mask of advice that states no reads.
const allPositions = math.MaxUint64

// procPositions are host, procName and procId: one ProcFromContext walk
// fills all three, so a woven list that reads one reads all of them.
const procPositions = 1<<0 | 1<<2 | 1<<3

// reads reports whether position i is in read mask m.
func reads(m uint64, i int) bool {
	return m == allPositions || m>>i&1 != 0 // a shift past 63 gives 0
}

// wovenList is what a tracepoint publishes with one pointer: its advice and
// the positions they read, so a crossing never sees one without the other.
type wovenList struct {
	advice []Advice
	mask   uint64 // OR of the advice's Observed masks, allPositions for any other advice
}

// newWovenList returns the list of advice with its mask, or nil when
// advice is empty.
func newWovenList(advice []Advice) *wovenList {
	if len(advice) == 0 {
		return nil
	}
	w := &wovenList{advice: advice}
	for _, a := range advice {
		if o, ok := a.(Observer); ok {
			w.mask |= o.Observed()
		} else {
			w.mask = allPositions
		}
	}
	if w.mask&procPositions != 0 {
		w.mask |= procPositions
	}
	return w
}

// PanicSink is optionally implemented by advice that wants to observe its
// own panics recovered at the Here boundary — the advice circuit breaker
// uses it to count faults toward quarantine. The sink runs inside the
// recover path and must not panic itself.
type PanicSink interface {
	AdvicePanicked(tpName string, recovered any)
}

// SpanSink observes every Here crossing of a tracepoint, woven or not —
// the hook span capture attaches via Registry.SetSpanSink. While no hook
// is attached (the default), the disabled fast path pays one extra atomic
// nil-load; the sink itself derives everything (baggage, process identity,
// clock) from ctx, so nothing is computed when span capture is off.
type SpanSink interface {
	TracepointCrossed(ctx context.Context, tpName string)
}

// Failpoint is a fault-injection hook (see Registry.SetFailpoint). vals is
// the tuple the advice is handed, with the same positions null (see
// Observer).
type Failpoint func(a Advice, vals tuple.Tuple)

// hooks are what a registry attaches to every tracepoint it defines; a
// tracepoint holds nil while neither is set.
type hooks struct {
	span SpanSink
	fail Failpoint
}

// Tracepoint identifies one or more locations in the system code and the
// variables exported there. Tracepoint definitions are not part of system
// code; they are named entry points that queries refer to.
type Tracepoint struct {
	// Name is the query-visible identifier, e.g.
	// "DataNodeMetrics.incrBytesRead".
	Name string
	// Class and Method document the source location the tracepoint refers
	// to, mirroring the paper's tracepoint specifications.
	Class, Method string
	// Exports names the declared exported variables, in the order the
	// instrumented call site passes them to Here.
	Exports tuple.Schema

	schema tuple.Schema // DefaultExports + Exports
	woven  atomic.Pointer[wovenList]
	weaves atomic.Int64                      // advice installations at this tracepoint
	panics atomic.Int64                      // advice panics recovered at the Here boundary
	hits   atomic.Pointer[telemetry.Counter] // Here crossings, while telemetry is attached
	hooks  atomic.Pointer[hooks]

	// pool recycles the schema-width tuple Here materializes per enabled
	// fire, so steady-state enabled crossings allocate nothing for it.
	// Safe because Advice.Invoke must not retain vals (see Advice).
	pool sync.Pool // *pooledTuple
}

// pooledTuple wraps the recycled fire tuple so the pool round-trips one
// stable pointer instead of allocating a fresh slice header per Put.
type pooledTuple struct{ t tuple.Tuple }

// Schema returns the full exported schema: default exports then declared.
func (tp *Tracepoint) Schema() tuple.Schema { return tp.schema }

// Enabled reports whether any advice is currently woven.
func (tp *Tracepoint) Enabled() bool {
	return tp.woven.Load() != nil
}

// Panics returns how many advice panics this tracepoint has recovered.
func (tp *Tracepoint) Panics() int64 { return tp.panics.Load() }

// Here is the hook the instrumented system calls when execution reaches the
// tracepoint. vals are the declared exports, in Exports order; missing
// trailing values are null, and so are the positions no woven advice
// observes (see Observer): the process identity, the clock and each export
// are read only when some woven advice observes them. When no advice is
// woven the call returns after three atomic loads (advice, hit counter,
// span sink), without materializing a tuple; hits are counted only while
// telemetry is attached.
func (tp *Tracepoint) Here(ctx context.Context, vals ...any) {
	w := tp.woven.Load()
	if h := tp.hits.Load(); h != nil {
		h.Inc()
	}
	if h := tp.hooks.Load(); h != nil && h.span != nil {
		h.span.TracepointCrossed(ctx, tp.Name)
	}
	if w == nil {
		return
	}
	p, _ := tp.pool.Get().(*pooledTuple)
	if p == nil || len(p.t) != len(tp.schema) {
		p = &pooledTuple{t: make(tuple.Tuple, len(tp.schema))}
	}
	full, m := p.t, w.mask
	if m&procPositions != 0 {
		info := ProcFromContext(ctx)
		full[0] = tuple.String(info.Host)
		full[2] = tuple.String(info.ProcName)
		full[3] = tuple.Int(info.ProcID)
	}
	if reads(m, 1) {
		full[1] = tuple.Int(int64(Now(ctx)))
	}
	if reads(m, 4) {
		full[4] = tuple.String(tp.Name)
	}
	vals = vals[:min(len(vals), len(tp.Exports))]
	for i, v := range vals {
		if at := len(DefaultExports) + i; reads(m, at) {
			full[at] = tuple.Of(v)
		}
	}
	for _, a := range w.advice {
		tp.invoke(ctx, a, full)
	}
	// Clear what was written before pooling: stale values must not leak
	// into the next fire (unwritten positions are expected to read null)
	// and pooled string references must not pin application memory.
	for i := range full[:len(DefaultExports)+len(vals)] {
		if reads(m, i) {
			full[i] = tuple.Value{}
		}
	}
	tp.pool.Put(p)
}

// invoke runs one advice behind a recover boundary: advice is the only
// untrusted code the tracer injects into the application's request path,
// and a panic there must never take the application down (the paper's
// §3.3 safety promise). Recovered panics are counted and handed to the
// advice's PanicSink, which is how the circuit breaker learns of faults.
func (tp *Tracepoint) invoke(ctx context.Context, a Advice, full tuple.Tuple) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		tp.panics.Add(1)
		if s, ok := a.(PanicSink); ok {
			s.AdvicePanicked(tp.Name, r)
		}
	}()
	if h := tp.hooks.Load(); h != nil && h.fail != nil {
		if q, ok := a.(interface{ Quarantined() bool }); !ok || !q.Quarantined() {
			h.fail(a, full)
		}
	}
	a.Invoke(ctx, full)
}

// Registry holds the tracepoints of one monitored deployment. Tracepoints
// can be defined at any time; queries are resolved against the registry.
type Registry struct {
	mu    sync.Mutex
	tps   map[string]*Tracepoint
	hooks []func(*Tracepoint)

	tel      *telemetry.Registry
	attached *hooks // what every tracepoint gets; nil while nothing is set
	weaveNS  atomic.Pointer[telemetry.Histogram]
}

// SetSpanSink attaches a span sink to the registry: every tracepoint,
// existing and future, reports its Here crossings to s. Passing nil
// detaches the sink, restoring the single-load disabled fast path.
func (r *Registry) SetSpanSink(s SpanSink) { r.setHooks(func(h *hooks) { h.span = s }) }

// SetFailpoint installs a fault-injection hook on the registry: every
// tracepoint, existing and future, runs fn before each woven advice that
// is not quarantined, inside the boundary that recovers the advice's
// panics, so a panic fn raises counts as that advice's own. The
// declarative pipeline cannot naturally panic or run away, so chaos tests
// inject exactly those faults through it. Passing nil removes the hook.
// Not for production use.
func (r *Registry) SetFailpoint(fn Failpoint) { r.setHooks(func(h *hooks) { h.fail = fn }) }

// setHooks changes the registry's hooks with set and attaches the result
// to every tracepoint, existing and future.
func (r *Registry) setHooks(set func(*hooks)) {
	r.mu.Lock()
	var h hooks
	if r.attached != nil {
		h = *r.attached
	}
	set(&h)
	p := &h
	if h.span == nil && h.fail == nil {
		p = nil
	}
	r.attached = p
	existing := r.defined()
	r.mu.Unlock()
	for _, tp := range existing {
		tp.hooks.Store(p)
	}
}

// defined returns the tracepoints defined so far. The caller holds r.mu.
func (r *Registry) defined() []*Tracepoint {
	out := make([]*Tracepoint, 0, len(r.tps))
	for _, tp := range r.tps {
		out = append(out, tp)
	}
	return out
}

// SetTelemetry attaches self-telemetry to the registry: every tracepoint,
// existing and future, counts its Here crossings from now on in
// "tracepoint.hits.<name>"; every snapshot of t carries each tracepoint's
// own weave and panic counts as "tracepoint.weaves.<name>" and
// "tracepoint.panics.<name>"; and weave latency is recorded in the
// "tracepoint.weave.ns" histogram.
func (r *Registry) SetTelemetry(t *telemetry.Registry) {
	r.mu.Lock()
	r.tel = t
	for name, tp := range r.tps {
		tp.hits.Store(t.Counter("tracepoint.hits." + name))
	}
	r.mu.Unlock()
	r.weaveNS.Store(t.Histogram("tracepoint.weave.ns"))
	t.Source(func(s *telemetry.Snapshot) {
		r.mu.Lock()
		defer r.mu.Unlock()
		for name, tp := range r.tps {
			s.Counters["tracepoint.weaves."+name] = tp.weaves.Load()
			s.Counters["tracepoint.panics."+name] = tp.panics.Load()
		}
	})
}

// OnDefine registers a callback invoked whenever a new tracepoint is
// defined (and immediately for all existing tracepoints). Pivot Tracing
// agents use it to weave standing queries into tracepoints that appear
// after query installation.
func (r *Registry) OnDefine(fn func(*Tracepoint)) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	existing := r.defined()
	r.mu.Unlock()
	for _, tp := range existing {
		fn(tp)
	}
}

// NewRegistry returns an empty tracepoint registry.
func NewRegistry() *Registry {
	return &Registry{tps: make(map[string]*Tracepoint)}
}

// Define registers a tracepoint. Defining the same name twice returns the
// existing tracepoint if the exports match and panics otherwise (a
// conflicting definition is a programming error in the instrumented
// system).
func (r *Registry) Define(name string, exports ...string) *Tracepoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tp, ok := r.tps[name]; ok {
		if !tp.Exports.Equal(tuple.Schema(exports)) {
			panic(fmt.Sprintf("tracepoint: conflicting definition of %q", name))
		}
		return tp
	}
	for _, e := range exports {
		if DefaultExports.Index(e) >= 0 {
			panic(fmt.Sprintf("tracepoint: %q export %q shadows a default export", name, e))
		}
	}
	tp := &Tracepoint{
		Name:    name,
		Exports: tuple.Schema(exports),
		schema:  DefaultExports.Concat(tuple.Schema(exports)),
	}
	if r.tel != nil {
		tp.hits.Store(r.tel.Counter("tracepoint.hits." + name))
	}
	tp.hooks.Store(r.attached)
	r.tps[name] = tp
	var hooks []func(*Tracepoint)
	hooks = append(hooks, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(tp)
	}
	r.mu.Lock()
	return tp
}

// Lookup returns the named tracepoint, or nil.
func (r *Registry) Lookup(name string) *Tracepoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tps[name]
}

// Names returns all defined tracepoint names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.tps))
	for name := range r.tps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Weave installs advice at the named tracepoint. It returns an error if the
// tracepoint is not defined.
func (r *Registry) Weave(name string, a Advice) error {
	tp := r.Lookup(name)
	if tp == nil {
		return fmt.Errorf("tracepoint: weave into undefined tracepoint %q", name)
	}
	h := r.weaveNS.Load()
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	tp.weave(a)
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
	tp.weaves.Add(1)
	return nil
}

// Unweave removes previously woven advice from the named tracepoint.
func (r *Registry) Unweave(name string, a Advice) {
	if tp := r.Lookup(name); tp != nil {
		tp.unweave(a)
	}
}

func (tp *Tracepoint) weave(a Advice) {
	for {
		old := tp.woven.Load()
		var list []Advice
		if old != nil {
			list = append(list, old.advice...)
		}
		if tp.woven.CompareAndSwap(old, newWovenList(append(list, a))) {
			return
		}
	}
}

func (tp *Tracepoint) unweave(a Advice) {
	for {
		old := tp.woven.Load()
		if old == nil {
			return
		}
		list := make([]Advice, 0, len(old.advice))
		for _, x := range old.advice {
			if x != a {
				list = append(list, x)
			}
		}
		if tp.woven.CompareAndSwap(old, newWovenList(list)) {
			return
		}
	}
}

// ProcInfo identifies the simulated process an execution is running in,
// supplying the tracepoint default exports.
type ProcInfo struct {
	Host     string
	ProcName string
	ProcID   int64
}

// ProcKey is the context key of the process identity, a *ProcInfo that is
// never written; exported so that a context carrying several request-scoped
// values in one node can answer for it.
type ProcKey struct{}

// WithProc attaches process identity to a context.
func WithProc(ctx context.Context, info ProcInfo) context.Context {
	return context.WithValue(ctx, ProcKey{}, &info)
}

// ProcFromContext returns the process identity attached to ctx, or zero.
func ProcFromContext(ctx context.Context) ProcInfo {
	if info, _ := ctx.Value(ProcKey{}).(*ProcInfo); info != nil {
		return *info
	}
	return ProcInfo{}
}

// Clock abstracts the time source for the "time" default export, so
// simulated deployments report virtual time and real deployments report
// wall-clock time.
type Clock interface {
	Now() time.Duration
}

// ClockKey is the context key of the Clock, exported for the same reason as
// ProcKey.
type ClockKey struct{}

// WithClock attaches a clock to a context.
func WithClock(ctx context.Context, c Clock) context.Context {
	return context.WithValue(ctx, ClockKey{}, c)
}

// Now reads the context's clock, falling back to wall-clock time since the
// Unix epoch.
func Now(ctx context.Context) time.Duration {
	if c, ok := ctx.Value(ClockKey{}).(Clock); ok {
		return c.Now()
	}
	return time.Duration(time.Now().UnixNano())
}
