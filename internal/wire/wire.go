// Package wire serializes Pivot Tracing's control-plane messages for
// transport between real OS processes: compiled advice programs (weave
// instructions) and per-interval reports. Queries in the paper compile to
// advice that agents install dynamically (§2.2 Â-Ã); shipping the advice —
// including filter and compute expressions — over the network is what
// makes that work across process boundaries.
//
// The format is the repository's usual varint style, and every decoder here
// is a list of reads from one tuple.Reader, which detects truncation, bounds
// counts and keeps the first error. Expressions are encoded structurally
// (the advice instruction set has no jumps or recursion); they are trees, so
// readExpr bounds the nesting it follows.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/slab"
	"repro/internal/spans"
	"repro/internal/tuple"
)

// --- primitives ---

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

func appendStrings(buf []byte, xs []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = appendString(buf, x)
	}
	return buf
}

// --- expressions ---

const (
	exprNil = iota
	exprField
	exprLiteral
	exprBinary
	exprUnary
)

// AppendExpr encodes a query expression tree.
func AppendExpr(buf []byte, e query.Expr) []byte {
	switch x := e.(type) {
	case nil:
		return append(buf, exprNil)
	case query.FieldRef:
		buf = append(buf, exprField)
		buf = appendString(buf, x.Alias)
		return appendString(buf, x.Field)
	case query.Literal:
		buf = append(buf, exprLiteral)
		return tuple.AppendValue(buf, x.Value)
	case query.Binary:
		buf = append(buf, exprBinary, byte(x.Op))
		buf = AppendExpr(buf, x.L)
		return AppendExpr(buf, x.R)
	case query.Unary:
		buf = append(buf, exprUnary, x.Op)
		return AppendExpr(buf, x.X)
	default:
		// Unknown expression kinds cannot cross the wire; encode null.
		buf = append(buf, exprLiteral)
		return tuple.AppendValue(buf, tuple.Null)
	}
}

// maxExprDepth bounds the nesting readExpr follows: it recurses once per
// level, and a frame of nested unary tags would otherwise overflow the
// goroutine stack, which no recover catches. The query parser builds one
// level per operator a person typed; 256 is far beyond that and a few
// kilobytes of stack.
const maxExprDepth = 256

var errExprDepth = fmt.Errorf("wire: expression nested deeper than %d levels", maxExprDepth)

func readExpr(r *tuple.Reader, depth int) query.Expr {
	if depth > maxExprDepth {
		r.Fail(errExprDepth)
		return nil
	}
	switch tag := r.Byte(); tag {
	case exprNil: // also what a failed Reader yields, which ends the recursion
		return nil
	case exprField:
		return query.FieldRef{Alias: r.String(), Field: r.String()}
	case exprLiteral:
		return query.Literal{Value: r.Value()}
	case exprBinary:
		return query.Binary{Op: query.BinOp(r.Byte()), L: readExpr(r, depth+1), R: readExpr(r, depth+1)}
	case exprUnary:
		return query.Unary{Op: r.Byte(), X: readExpr(r, depth+1)}
	default:
		r.Fail(fmt.Errorf("wire: bad expr tag %d", tag))
		return nil
	}
}

func appendBindings(buf []byte, m map[query.FieldRef]int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	// Deterministic order is unnecessary on the wire; iterate freely.
	for ref, pos := range m {
		buf = appendString(buf, ref.Alias)
		buf = appendString(buf, ref.Field)
		buf = binary.AppendVarint(buf, int64(pos))
	}
	return buf
}

func readBindings(r *tuple.Reader) map[query.FieldRef]int {
	n := r.Count()
	m := make(map[query.FieldRef]int, n)
	for ; n > 0 && r.Err() == nil; n-- {
		ref := query.FieldRef{Alias: r.String(), Field: r.String()}
		m[ref] = readPos(r, 0)
	}
	return m
}

// appendBound encodes a program's filters or computes: each one's
// expression tree and bindings.
func appendBound(buf []byte, xs []advice.Expr) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = AppendExpr(buf, x.Source())
		buf = appendBindings(buf, x.Bindings())
	}
	return buf
}

// readBound decodes what appendBound wrote and binds each expression.
func readBound(r *tuple.Reader) []advice.Expr {
	var xs []advice.Expr
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		xs = append(xs, advice.BindExpr(readExpr(r, 0), readBindings(r)))
	}
	return xs
}

// readPos reads one working-tuple position, which may not lie below
// least. One that did would index out of range on every fire, panic into
// the advice's recover boundary and get the program quarantined, so the
// decode fails instead.
func readPos(r *tuple.Reader, least int) int {
	pos := r.Varint()
	if pos < int64(least) {
		r.Fail(fmt.Errorf("wire: position %d below %d", pos, least))
		return 0
	}
	return int(pos)
}

// readPositions reads a list of working-tuple positions.
func readPositions(r *tuple.Reader) []int {
	n := r.Count()
	xs := make([]int, 0, n)
	for ; n > 0 && r.Err() == nil; n-- {
		xs = append(xs, readPos(r, 0))
	}
	return xs
}

// --- advice programs ---

// AppendProgram encodes a compiled advice program.
func AppendProgram(buf []byte, p *advice.Program) []byte {
	buf = appendString(buf, p.QueryID)
	buf = appendString(buf, p.Tracepoint)
	buf = appendInts(buf, p.Observe)
	buf = appendStrings(buf, p.ObserveFields)
	buf = binary.AppendUvarint(buf, math.Float64bits(p.SampleRate))
	buf = binary.AppendVarint(buf, int64(p.Safety.Budget.MaxBytes))
	buf = binary.AppendVarint(buf, int64(p.Safety.Budget.MaxTuples))
	buf = binary.AppendVarint(buf, p.Safety.FaultLimit)
	buf = binary.AppendVarint(buf, p.Safety.CostCeiling)

	buf = binary.AppendUvarint(buf, uint64(len(p.Unpacks)))
	for _, u := range p.Unpacks {
		buf = appendString(buf, u.Slot)
		buf = appendStrings(buf, u.Fields)
	}
	buf = appendBound(buf, p.Filters)
	buf = appendBound(buf, p.Computes)
	if p.Pack != nil {
		buf = append(buf, 1)
		buf = appendString(buf, p.Pack.Slot)
		buf = baggage.AppendSpec(buf, p.Pack.Spec)
		buf = appendInts(buf, p.Pack.Source)
	} else {
		buf = append(buf, 0)
	}
	if p.Emit != nil {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(p.Emit.Cols)))
		for _, c := range p.Emit.Cols {
			flag := byte(0)
			if c.IsAgg {
				flag = 1
			}
			buf = append(buf, flag, byte(c.Fn))
			buf = binary.AppendVarint(buf, int64(c.Pos))
		}
		buf = appendInts(buf, p.Emit.GroupBy)
		raw := byte(0)
		if p.Emit.Raw {
			raw = 1
		}
		buf = append(buf, raw)
		buf = appendStrings(buf, p.Emit.Schema)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func readProgram(r *tuple.Reader) *advice.Program {
	p := &advice.Program{
		QueryID: r.String(), Tracepoint: r.String(),
		Observe: readPositions(r), ObserveFields: r.Strings(),
		// Hostile rates (NaN, negative, zero, > 1, absurd weights) are clamped
		// to "unsampled" here so a corrupt frame can never inflate weights.
		SampleRate: advice.ClampRate(math.Float64frombits(r.Uvarint())),
		Safety: advice.Safety{
			Budget:     baggage.Budget{MaxBytes: int(r.Varint()), MaxTuples: int(r.Varint())},
			FaultLimit: r.Varint(), CostCeiling: r.Varint(),
		},
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		p.Unpacks = append(p.Unpacks, advice.UnpackOp{Slot: r.String(), Fields: r.Strings()})
	}
	p.Filters, p.Computes = readBound(r), readBound(r)
	if r.Byte() == 1 {
		// ReadSpec validates the spec's positions against its fields, as it
		// does for specs arriving in baggage.
		p.Pack = &advice.PackOp{Slot: r.String(), Spec: baggage.ReadSpec(r), Source: readPositions(r)}
	}
	if r.Byte() == 1 {
		em := &advice.EmitOp{}
		for n := r.Count(); n > 0 && r.Err() == nil; n-- {
			em.Cols = append(em.Cols, advice.EmitCol{IsAgg: r.Byte() == 1, Fn: agg.Func(r.Byte()), Pos: readPos(r, -1)})
		}
		em.GroupBy, em.Raw, em.Schema = readPositions(r), r.Byte() == 1, r.Strings()
		p.Emit = em
	}
	return p
}

// --- control and results messages ---

// Message type tags on the wire. Tag 3 (a bare Report) is retired: results
// travel only in ReportBatch frames, and a frame tagged 3 is rejected.
const (
	TagInstall        = 1
	TagUninstall      = 2
	TagHeartbeat      = 4
	TagStatusRequest  = 5
	TagStatusResponse = 6
	TagRenew          = 7
	TagQuarantine     = 8
	TagReportBatch    = 9
	TagSpanBatch      = 10
	TagExplainStats   = 11
	TagTenantUsage    = 12
)

// appendCounters encodes a struct's counters (agent.Stats, declared in
// internal/agent, and advice.Costs, which fix their order) as a count and
// that many varints.
func appendCounters(buf []byte, vs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// readCounters reads what appendCounters wrote into dst, which the caller
// passes zeroed. A sender that knows fewer counters than dst leaves the
// tail zero; one that knows more has its extras parsed and ignored — the
// counter lists are append-only, so frames between versions degrade
// instead of being rejected.
func readCounters(r *tuple.Reader, dst []int64) {
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		if v := r.Varint(); i < len(dst) {
			dst[i] = v
		}
	}
}

// appendSpan encodes one span record (no tag byte). Ids are raw uvarints
// (they are uniformly-mixed 64-bit values; zig-zag would only cost bytes).
func appendSpan(buf []byte, sp *spans.Span) []byte {
	buf = binary.AppendUvarint(buf, sp.TraceID)
	buf = binary.AppendUvarint(buf, sp.SpanID)
	buf = binary.AppendUvarint(buf, uint64(len(sp.Parents)))
	for _, p := range sp.Parents {
		buf = binary.AppendUvarint(buf, p)
	}
	buf = appendString(buf, sp.Tracepoint)
	buf = appendString(buf, sp.Host)
	buf = appendString(buf, sp.ProcName)
	buf = binary.AppendVarint(buf, int64(sp.Start))
	buf = binary.AppendVarint(buf, int64(sp.Duration))
	return buf
}

// readSpan decodes one span record (no tag byte).
func readSpan(r *tuple.Reader) spans.Span {
	sp := spans.Span{TraceID: r.Uvarint(), SpanID: r.Uvarint()}
	if n := r.Count(); n > 0 {
		sp.Parents = make([]uint64, 0, n)
		for ; n > 0 && r.Err() == nil; n-- {
			sp.Parents = append(sp.Parents, r.Uvarint())
		}
	}
	sp.Tracepoint, sp.Host, sp.ProcName = r.String(), r.String(), r.String()
	sp.Start, sp.Duration = time.Duration(r.Varint()), time.Duration(r.Varint())
	return sp
}

// appendReport encodes one report of a TagReportBatch frame.
func appendReport(buf []byte, m *agent.Report) []byte {
	buf = appendString(buf, m.QueryID)
	buf = appendString(buf, m.Host)
	buf = appendString(buf, m.ProcName)
	buf = binary.AppendVarint(buf, int64(m.Time))
	buf = binary.AppendUvarint(buf, uint64(len(m.Groups)))
	for _, g := range m.Groups {
		buf = appendString(buf, g.Key)
		buf = tuple.AppendTuple(buf, g.Rep)
		buf = binary.AppendUvarint(buf, uint64(len(g.States)))
		for i := range g.States {
			buf = g.States[i].Append(buf)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Raws)))
	for _, r := range m.Raws {
		buf = tuple.AppendTuple(buf, r)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Drops)))
	for _, d := range m.Drops {
		buf = appendString(buf, d.Slot)
		buf = appendString(buf, d.Key)
	}
	return buf
}

// readReport decodes one report of a TagReportBatch frame. The group list,
// the groups, their states (each read in place) and every Rep value are
// cut from the decoder's slabs, sized from the counts the frame gives — a
// count times the width of the first element that carries it, which is
// exact unless the frame's groups are ragged — and never beyond what the
// unread bytes could encode. Group keys and Rep
// strings borrow the frame (a Merger copies what it keeps); raw rows are
// kept by reference wherever they are merged, so they and their strings
// are fresh.
func (d *Decoder) readReport(r *tuple.Reader, prev *agent.Report) agent.Report {
	m := agent.Report{QueryID: name(r, prev.QueryID), Host: name(r, prev.Host), ProcName: name(r, prev.ProcName), Time: time.Duration(r.Varint())}
	if n := r.CountOf(minGroupSize); n > 0 {
		d.groups.Expect(n)
		d.lists.Expect(n)
		groups := d.groups.Take(n)
		m.Groups = d.lists.Take(n)
		for i := 0; i < n && r.Err() == nil; i++ {
			g := &groups[i]
			m.Groups[i] = g
			g.Key, g.Rep = r.Borrow(), r.SlabTuple(&d.values, n-i, true)
			ns := r.CountOf(agg.MinEncodedSize)
			d.states.Expect(min((n-i)*ns, len(r.Rest())/agg.MinEncodedSize))
			g.States = d.states.Take(ns)
			for k := 0; k < ns && r.Err() == nil; k++ {
				g.States[k].Read(r)
			}
		}
	}
	if n := r.Count(); n > 0 {
		var values slab.Slab[tuple.Value]
		m.Raws = make([]tuple.Tuple, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Raws[i] = r.SlabTuple(&values, n-i, false)
		}
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		m.Drops = append(m.Drops, baggage.DropRecord{Slot: r.String(), Key: r.String()})
	}
	return m
}

// name reads a report's query id, host or process name into a string of
// its own: a combiner keys its pending table by query id. prev is the
// string the decoder read at the same place of an earlier frame; a link's
// steady stream of reports repeats it, so it is handed out again instead
// of copied.
func name(r *tuple.Reader, prev string) string {
	if peek := *r; peek.Borrow() == prev {
		*r = peek
		return prev
	}
	return r.String()
}

// minGroupSize is the fewest bytes appendReport writes for a group: an
// empty key, an empty Rep and no states, one length byte each.
const minGroupSize = 3

// Marshal encodes a bus message into a new slice: Append(nil, msg).
func Marshal(msg any) ([]byte, error) { return Append(nil, msg) }

// Append appends the encoding of a bus message to buf and returns the
// extended slice: any of the eleven types of internal/agent/messages.go
// that carry a Tag constant above. Unknown message types return an error
// and buf unchanged. Append retains neither buf nor msg, so a caller may
// encode every message into one reused buffer.
func Append(buf []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case agent.Install:
		buf = append(buf, TagInstall)
		buf = appendString(buf, m.QueryID)
		buf = binary.AppendVarint(buf, int64(m.TTL))
		buf = binary.AppendVarint(buf, int64(m.Limits.MaxGroups))
		buf = binary.AppendVarint(buf, int64(m.Limits.MaxRaws))
		buf = appendString(buf, m.Tenant)
		buf = binary.AppendUvarint(buf, uint64(len(m.Programs)))
		for _, p := range m.Programs {
			buf = AppendProgram(buf, p)
		}
	case agent.Renew:
		buf = append(buf, TagRenew)
		buf = binary.AppendVarint(buf, int64(m.TTL))
		buf = appendStrings(buf, m.QueryIDs)
	case agent.Quarantine:
		buf = append(buf, TagQuarantine)
		buf = appendString(buf, m.QueryID)
		buf = appendString(buf, m.Tracepoint)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = appendString(buf, m.Reason)
		buf = binary.AppendVarint(buf, int64(m.Time))
	case agent.Uninstall:
		buf = append(buf, TagUninstall)
		buf = appendString(buf, m.QueryID)
	case agent.Heartbeat:
		// One allocation for the common frame into a nil or short buf:
		// full-width Time, Interval and Queries, counters below 2^20;
		// append grows a busier one.
		buf = slices.Grow(buf, 4+len(m.Host)+len(m.ProcName)+3*binary.MaxVarintLen64+3*agent.NumStats)
		buf = append(buf, TagHeartbeat)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendVarint(buf, int64(m.Interval))
		buf = binary.AppendVarint(buf, int64(m.Queries))
		buf = appendCounters(buf, m.Stats.Values()[:])
	case agent.StatusRequest:
		buf = append(buf, TagStatusRequest)
		buf = appendString(buf, m.ID)
	case agent.StatusResponse:
		buf = append(buf, TagStatusResponse)
		buf = appendString(buf, m.ID)
		buf = appendString(buf, m.Text)
	case agent.ReportBatch:
		buf = append(buf, TagReportBatch)
		buf = binary.AppendUvarint(buf, uint64(len(m.Reports)))
		for i := range m.Reports {
			buf = appendReport(buf, &m.Reports[i])
		}
	case agent.SpanBatch:
		buf = append(buf, TagSpanBatch)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendUvarint(buf, uint64(len(m.Spans)))
		for i := range m.Spans {
			buf = appendSpan(buf, &m.Spans[i])
		}
	case agent.TenantUsage:
		buf = append(buf, TagTenantUsage)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendUvarint(buf, uint64(len(m.Usage)))
		for _, u := range m.Usage {
			buf = appendString(buf, u.Tenant)
			buf = binary.AppendVarint(buf, u.Queries)
			buf = binary.AppendVarint(buf, u.Tuples)
		}
	case agent.ExplainStats:
		buf = append(buf, TagExplainStats)
		buf = appendString(buf, m.QueryID)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendVarint(buf, m.FlushNS)
		buf = binary.AppendUvarint(buf, uint64(len(m.Ops)))
		for i := range m.Ops {
			buf = appendString(buf, m.Ops[i].Tracepoint)
			buf = appendCounters(buf, m.Ops[i].Values()[:])
		}
	default:
		return buf, fmt.Errorf("wire: cannot marshal %T", msg)
	}
	return buf, nil
}

// Unmarshal decodes a message produced by Marshal. A decoded report's group
// keys and Rep strings alias buf, so the caller must not write buf while
// the message is in use; every other field is its own.
func Unmarshal(buf []byte) (any, error) { return new(Decoder).Decode(buf) }

// Decoder decodes messages as Unmarshal does, into memory it reuses: a
// ReportBatch, boxed, and its report list are the decoder's own, its group
// lists, groups, states and Rep values are cut from slabs that the next
// Decode rewinds (each state is decoded in place, over whatever the slab
// held), and its keys and Rep strings alias the frame, so the batch is lent
// until then. Raw rows, drop records and every other message are fresh. A
// Decoder serves one goroutine; its zero value is ready to use.
type Decoder struct {
	reports []agent.Report
	batch   any // agent.ReportBatch over reports, boxed
	lists   slab.Slab[*advice.Group]
	groups  slab.Slab[advice.Group]
	states  slab.Slab[agg.State]
	values  slab.Slab[tuple.Value]
}

// Decode decodes one frame. Whatever the decoder lent for the previous
// frame, and that frame's bytes, must no longer be in use.
func (d *Decoder) Decode(buf []byte) (any, error) {
	d.lists.Rewind()
	d.groups.Rewind()
	d.states.Rewind()
	d.values.Rewind()
	r := tuple.NewReader(buf)
	msg := d.readMessage(&r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return msg, nil
}

func (d *Decoder) readMessage(r *tuple.Reader) any {
	switch tag := r.Byte(); tag {
	case TagInstall:
		m := agent.Install{
			QueryID: r.String(), TTL: time.Duration(r.Varint()),
			Limits: advice.Limits{MaxGroups: int(r.Varint()), MaxRaws: int(r.Varint())},
			Tenant: r.String(),
		}
		for n := r.Count(); n > 0 && r.Err() == nil; n-- {
			m.Programs = append(m.Programs, readProgram(r))
		}
		return m
	case TagUninstall:
		return agent.Uninstall{QueryID: r.String()}
	case TagRenew:
		return agent.Renew{TTL: time.Duration(r.Varint()), QueryIDs: r.Strings()}
	case TagQuarantine:
		return agent.Quarantine{
			QueryID: r.String(), Tracepoint: r.String(), Host: r.String(), ProcName: r.String(),
			Reason: r.String(), Time: time.Duration(r.Varint()),
		}
	case TagHeartbeat:
		m := agent.Heartbeat{
			Host: r.String(), ProcName: r.String(), Time: time.Duration(r.Varint()),
			Interval: time.Duration(r.Varint()), Queries: int(r.Varint()),
		}
		readCounters(r, m.Stats.Values()[:])
		return m
	case TagStatusRequest:
		return agent.StatusRequest{ID: r.String()}
	case TagStatusResponse:
		return agent.StatusResponse{ID: r.String(), Text: r.String()}
	case TagReportBatch:
		// A report's place still holds the one an earlier frame put there,
		// whose header strings readReport hands out again where they repeat.
		n := r.Count()
		d.reports = slices.Grow(d.reports[:0], n)[:n]
		for i := 0; i < n && r.Err() == nil; i++ {
			d.reports[i] = d.readReport(r, &d.reports[i])
		}
		// The list moves to new memory only as it grows, which changes its
		// capacity, so a batch boxed with the same length and capacity is
		// this one, and is handed out again.
		if b, ok := d.batch.(agent.ReportBatch); !ok || len(b.Reports) != n || cap(b.Reports) != cap(d.reports) {
			d.batch = agent.ReportBatch{Reports: d.reports}
		}
		return d.batch
	case TagSpanBatch:
		m := agent.SpanBatch{Host: r.String(), ProcName: r.String(), Time: time.Duration(r.Varint())}
		n := r.Count()
		m.Spans = make([]spans.Span, 0, n)
		for ; n > 0 && r.Err() == nil; n-- {
			m.Spans = append(m.Spans, readSpan(r))
		}
		return m
	case TagTenantUsage:
		m := agent.TenantUsage{Host: r.String(), ProcName: r.String(), Time: time.Duration(r.Varint())}
		n := r.Count()
		m.Usage = make([]agent.TenantQuota, 0, n)
		for ; n > 0 && r.Err() == nil; n-- {
			m.Usage = append(m.Usage, agent.TenantQuota{Tenant: r.String(), Queries: r.Varint(), Tuples: r.Varint()})
		}
		return m
	case TagExplainStats:
		m := agent.ExplainStats{
			QueryID: r.String(), Host: r.String(), ProcName: r.String(),
			Time: time.Duration(r.Varint()), FlushNS: r.Varint(),
		}
		n := r.Count()
		m.Ops = make([]agent.OpStats, 0, n)
		for ; n > 0 && r.Err() == nil; n-- {
			op := agent.OpStats{Tracepoint: r.String()}
			readCounters(r, op.Values()[:])
			m.Ops = append(m.Ops, op)
		}
		return m
	default:
		r.Fail(fmt.Errorf("wire: bad message tag %d", tag))
		return nil
	}
}

// BusCodec adapts this package to the bus.Codec interface.
type BusCodec struct{}

// Append implements bus.Codec.
func (BusCodec) Append(dst []byte, msg any) ([]byte, error) { return Append(dst, msg) }

// Decoder implements bus.Codec with a Decoder of its own, so what it
// decodes is lent until its next call.
func (BusCodec) Decoder() func([]byte) (any, error) { return new(Decoder).Decode }
