package advice

import (
	"cmp"
	"fmt"

	"repro/internal/baggage"
)

// Safety bounds one program's runtime behavior — the enforcement half of
// the paper's §3.3 safety argument. The pipeline structure already rules
// out loops and recursion; Safety additionally caps the damage of a
// pathological (or buggy) query: its baggage footprint, its per-fire
// working-set growth, and how many panics it gets before the circuit
// breaker quarantines it. Zero fields select the defaults; negative
// fields disable that limit.
type Safety struct {
	// Budget caps the query's baggage footprint (enforced at pack time
	// with accounted truncation; see baggage.PackBudgeted).
	Budget baggage.Budget
	// FaultLimit is how many recovered panics quarantine the advice.
	FaultLimit int64
	// CostCeiling caps the working-tuple count of a single fire: an
	// unpack whose cartesian join exceeds it quarantines the advice
	// (runaway join fan-out is a per-fire latency hazard for the traced
	// request, not just a memory one).
	CostCeiling int64
}

// Safety defaults.
const (
	DefaultFaultLimit  = 3
	DefaultCostCeiling = 1 << 16
)

func (s Safety) faultLimit() int64 { return cmp.Or(s.FaultLimit, DefaultFaultLimit) }

func (s Safety) costCeiling() int64 { return cmp.Or(s.CostCeiling, DefaultCostCeiling) }

// Quarantined reports whether the circuit breaker has tripped. A
// quarantined program's advice is inert: every Invoke returns immediately
// until the program is unwoven.
func (p *Program) Quarantined() bool { return p.quarantined.Load() }

// Quarantined reports whether the advice's program is quarantined; the
// tracepoint's fault-injection hook skips such advice (see
// tracepoint.Registry.SetFailpoint).
func (a *Advice) Quarantined() bool { return a.Prog.Quarantined() }

// AdvicePanicked implements tracepoint.PanicSink: the Here boundary calls
// it after recovering a panic from this advice. Once the fault count
// reaches the program's limit the breaker trips.
func (a *Advice) AdvicePanicked(tpName string, recovered any) {
	p := a.Prog
	n := p.Cost.Panics.Add(1)
	if limit := p.Safety.faultLimit(); limit >= 0 && n >= limit {
		a.quarantine(fmt.Sprintf("%d advice panics at %s (last: %v)", n, tpName, recovered))
	}
}

// quarantine trips the breaker and notifies the emitter exactly once.
func (a *Advice) quarantine(reason string) {
	p := a.Prog
	p.quarantined.Store(true)
	if !p.notified.CompareAndSwap(false, true) {
		return
	}
	if h, ok := a.Emitter.(Host); ok {
		h.NoteQuarantine(p, reason)
	}
}
