// Package wire serializes Pivot Tracing's control-plane messages for
// transport between real OS processes: compiled advice programs (weave
// instructions) and per-interval reports. Queries in the paper compile to
// advice that agents install dynamically (§2.2 Â-Ã); shipping the advice —
// including filter and compute expressions — over the network is what
// makes that work across process boundaries.
//
// The format is the repository's usual varint style. Expressions are
// encoded structurally (the advice instruction set has no jumps or
// recursion, and expressions are finite trees, so decoding is safe).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/spans"
	"repro/internal/tuple"
)

var errTruncated = errors.New("wire: truncated message")

// --- primitives ---

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func decodeString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf)-k) < n {
		return "", nil, errTruncated
	}
	return string(buf[k : k+int(n)]), buf[k+int(n):], nil
}

func appendInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// capHint bounds a decoded element count by what the remaining buffer
// could possibly hold (one byte per element minimum), so a corrupt count
// can't balloon a preallocation. Compared in uint64: a count above
// MaxInt64 would go negative through a plain int conversion.
func capHint(n uint64, buf []byte) int {
	if n < uint64(len(buf)) {
		return int(n)
	}
	return len(buf)
}

func decodeInts(buf []byte) ([]int, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	out := make([]int, 0, capHint(n, buf))
	for i := uint64(0); i < n; i++ {
		v, k := binary.Varint(buf)
		if k <= 0 {
			return nil, nil, errTruncated
		}
		buf = buf[k:]
		out = append(out, int(v))
	}
	return out, buf, nil
}

func appendStrings(buf []byte, xs []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = appendString(buf, x)
	}
	return buf
}

func decodeStrings(buf []byte) ([]string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	out := make([]string, 0, capHint(n, buf))
	for i := uint64(0); i < n; i++ {
		var s string
		var err error
		s, buf, err = decodeString(buf)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, buf, nil
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

// DecodeExpr decodes one expression tree.
func DecodeExpr(buf []byte) (query.Expr, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, errTruncated
	}
	tag, rest := buf[0], buf[1:]
	switch tag {
	case exprNil:
		return nil, rest, nil
	case exprField:
		alias, rest, err := decodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		field, rest, err := decodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		return query.FieldRef{Alias: alias, Field: field}, rest, nil
	case exprLiteral:
		v, rest, err := tuple.DecodeValue(rest)
		if err != nil {
			return nil, nil, err
		}
		return query.Literal{Value: v}, rest, nil
	case exprBinary:
		if len(rest) == 0 {
			return nil, nil, errTruncated
		}
		op := query.BinOp(rest[0])
		l, rest, err := DecodeExpr(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := DecodeExpr(rest)
		if err != nil {
			return nil, nil, err
		}
		return query.Binary{Op: op, L: l, R: r}, rest, nil
	case exprUnary:
		if len(rest) == 0 {
			return nil, nil, errTruncated
		}
		op := rest[0]
		x, rest, err := DecodeExpr(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		return query.Unary{Op: op, X: x}, rest, nil
	default:
		return nil, nil, fmt.Errorf("wire: bad expr tag %d", tag)
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

func decodeBindings(buf []byte) (map[query.FieldRef]int, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	m := make(map[query.FieldRef]int, capHint(n, buf))
	for i := uint64(0); i < n; i++ {
		alias, rest, err := decodeString(buf)
		if err != nil {
			return nil, nil, err
		}
		field, rest, err := decodeString(rest)
		if err != nil {
			return nil, nil, err
		}
		pos, k := binary.Varint(rest)
		if k <= 0 {
			return nil, nil, errTruncated
		}
		buf = rest[k:]
		m[query.FieldRef{Alias: alias, Field: field}] = int(pos)
	}
	return m, buf, nil
}

// --- baggage set specs (re-encoded here to keep package APIs narrow) ---

func appendSpec(buf []byte, spec baggage.SetSpec) []byte {
	buf = append(buf, byte(spec.Kind))
	buf = binary.AppendVarint(buf, int64(spec.N))
	buf = appendStrings(buf, spec.Fields)
	buf = appendInts(buf, spec.GroupBy)
	buf = binary.AppendUvarint(buf, uint64(len(spec.Aggs)))
	for _, a := range spec.Aggs {
		buf = binary.AppendVarint(buf, int64(a.Pos))
		buf = append(buf, byte(a.Fn))
	}
	return buf
}

func decodeSpec(buf []byte) (baggage.SetSpec, []byte, error) {
	var spec baggage.SetSpec
	if len(buf) == 0 {
		return spec, nil, errTruncated
	}
	spec.Kind = baggage.SetKind(buf[0])
	n, k := binary.Varint(buf[1:])
	if k <= 0 {
		return spec, nil, errTruncated
	}
	spec.N = int(n)
	buf = buf[1+k:]
	fields, buf, err := decodeStrings(buf)
	if err != nil {
		return spec, nil, err
	}
	spec.Fields = fields
	gb, buf, err := decodeInts(buf)
	if err != nil {
		return spec, nil, err
	}
	spec.GroupBy = gb
	cnt, k := binary.Uvarint(buf)
	if k <= 0 {
		return spec, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < cnt; i++ {
		pos, k := binary.Varint(buf)
		if k <= 0 || len(buf) <= k {
			return spec, nil, errTruncated
		}
		spec.Aggs = append(spec.Aggs, baggage.AggField{Pos: int(pos), Fn: agg.Func(buf[k])})
		buf = buf[k+1:]
	}
	return spec, buf, nil
}

// --- advice programs ---

// AppendProgram encodes a compiled advice program.
func AppendProgram(buf []byte, p *advice.Program) []byte {
	buf = appendString(buf, p.QueryID)
	buf = appendString(buf, p.Tracepoint)
	buf = appendInts(buf, p.Observe)
	buf = appendStrings(buf, p.ObserveFields)
	buf = binary.AppendVarint(buf, p.SampleEvery)
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
	buf = binary.AppendUvarint(buf, uint64(len(p.Filters)))
	for _, f := range p.Filters {
		buf = AppendExpr(buf, f.Expr)
		buf = appendBindings(buf, f.Bindings)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Computes)))
	for _, c := range p.Computes {
		buf = AppendExpr(buf, c.Expr)
		buf = appendBindings(buf, c.Bindings)
	}
	if p.Pack != nil {
		buf = append(buf, 1)
		buf = appendString(buf, p.Pack.Slot)
		buf = appendSpec(buf, p.Pack.Spec)
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

// DecodeProgram decodes one advice program.
func DecodeProgram(buf []byte) (*advice.Program, []byte, error) {
	p := &advice.Program{}
	var err error
	if p.QueryID, buf, err = decodeString(buf); err != nil {
		return nil, nil, err
	}
	if p.Tracepoint, buf, err = decodeString(buf); err != nil {
		return nil, nil, err
	}
	if p.Observe, buf, err = decodeInts(buf); err != nil {
		return nil, nil, err
	}
	var fields []string
	if fields, buf, err = decodeStrings(buf); err != nil {
		return nil, nil, err
	}
	p.ObserveFields = fields
	se, k := binary.Varint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	p.SampleEvery = se
	buf = buf[k:]
	srBits, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	// Hostile rates (NaN, negative, zero, > 1, absurd weights) are clamped
	// to "unsampled" here so a corrupt frame can never inflate weights.
	p.SampleRate = sampling.ClampRate(math.Float64frombits(srBits))
	buf = buf[k:]
	var safety [4]int64
	for i := range safety {
		v, k := binary.Varint(buf)
		if k <= 0 {
			return nil, nil, errTruncated
		}
		safety[i] = v
		buf = buf[k:]
	}
	p.Safety = advice.Safety{
		Budget:      baggage.Budget{MaxBytes: int(safety[0]), MaxTuples: int(safety[1])},
		FaultLimit:  safety[2],
		CostCeiling: safety[3],
	}

	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		var u advice.UnpackOp
		if u.Slot, buf, err = decodeString(buf); err != nil {
			return nil, nil, err
		}
		var fs []string
		if fs, buf, err = decodeStrings(buf); err != nil {
			return nil, nil, err
		}
		u.Fields = fs
		p.Unpacks = append(p.Unpacks, u)
	}

	n, k = binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		var f advice.FilterOp
		if f.Expr, buf, err = DecodeExpr(buf); err != nil {
			return nil, nil, err
		}
		if f.Bindings, buf, err = decodeBindings(buf); err != nil {
			return nil, nil, err
		}
		p.Filters = append(p.Filters, f)
	}

	n, k = binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		var c advice.ComputeOp
		if c.Expr, buf, err = DecodeExpr(buf); err != nil {
			return nil, nil, err
		}
		if c.Bindings, buf, err = decodeBindings(buf); err != nil {
			return nil, nil, err
		}
		p.Computes = append(p.Computes, c)
	}

	if len(buf) == 0 {
		return nil, nil, errTruncated
	}
	hasPack := buf[0] == 1
	buf = buf[1:]
	if hasPack {
		pk := &advice.PackOp{}
		if pk.Slot, buf, err = decodeString(buf); err != nil {
			return nil, nil, err
		}
		if pk.Spec, buf, err = decodeSpec(buf); err != nil {
			return nil, nil, err
		}
		if pk.Source, buf, err = decodeInts(buf); err != nil {
			return nil, nil, err
		}
		p.Pack = pk
	}

	if len(buf) == 0 {
		return nil, nil, errTruncated
	}
	hasEmit := buf[0] == 1
	buf = buf[1:]
	if hasEmit {
		em := &advice.EmitOp{}
		n, k = binary.Uvarint(buf)
		if k <= 0 {
			return nil, nil, errTruncated
		}
		buf = buf[k:]
		for i := uint64(0); i < n; i++ {
			if len(buf) < 2 {
				return nil, nil, errTruncated
			}
			col := advice.EmitCol{IsAgg: buf[0] == 1, Fn: agg.Func(buf[1])}
			pos, k := binary.Varint(buf[2:])
			if k <= 0 {
				return nil, nil, errTruncated
			}
			col.Pos = int(pos)
			buf = buf[2+k:]
			em.Cols = append(em.Cols, col)
		}
		if em.GroupBy, buf, err = decodeInts(buf); err != nil {
			return nil, nil, err
		}
		if len(buf) == 0 {
			return nil, nil, errTruncated
		}
		em.Raw = buf[0] == 1
		buf = buf[1:]
		var schema []string
		if schema, buf, err = decodeStrings(buf); err != nil {
			return nil, nil, err
		}
		em.Schema = schema
		p.Emit = em
	}
	return p, buf, nil
}

// --- control and results messages ---

// Message type tags on the wire.
const (
	TagInstall        = 1
	TagUninstall      = 2
	TagReport         = 3
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

// appendCounters encodes a struct's counters (agent.Stats, agent.OpStats:
// declared in internal/agent, which fixes their order) as a count and that
// many varints.
func appendCounters(buf []byte, vs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// decodeCounters reads what appendCounters wrote into dst, which the caller
// passes zeroed. A sender that knows fewer counters than dst leaves the
// tail zero; one that knows more has its extras parsed and ignored — the
// counter lists are append-only, so frames between versions degrade
// instead of being rejected. A count the remaining bytes cannot hold (one
// byte per varint at least) is rejected before the loop.
func decodeCounters(buf []byte, dst []int64) ([]byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || n > uint64(len(buf)-k) {
		return nil, errTruncated
	}
	buf = buf[k:]
	for i := 0; i < int(n); i++ {
		v, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		if i < len(dst) {
			dst[i] = v
		}
		buf = buf[k:]
	}
	return buf, nil
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

// decodeSpan decodes one span record (no tag byte).
func decodeSpan(buf []byte) (spans.Span, []byte, error) {
	var sp spans.Span
	var err error
	ids := [2]uint64{}
	for i := range ids {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return sp, nil, errTruncated
		}
		ids[i] = v
		buf = buf[k:]
	}
	sp.TraceID, sp.SpanID = ids[0], ids[1]
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return sp, nil, errTruncated
	}
	buf = buf[k:]
	if n > 0 {
		sp.Parents = make([]uint64, 0, capHint(n, buf))
	}
	for i := uint64(0); i < n; i++ {
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return sp, nil, errTruncated
		}
		sp.Parents = append(sp.Parents, v)
		buf = buf[k:]
	}
	if sp.Tracepoint, buf, err = decodeString(buf); err != nil {
		return sp, nil, err
	}
	if sp.Host, buf, err = decodeString(buf); err != nil {
		return sp, nil, err
	}
	if sp.ProcName, buf, err = decodeString(buf); err != nil {
		return sp, nil, err
	}
	times := [2]int64{}
	for i := range times {
		v, k := binary.Varint(buf)
		if k <= 0 {
			return sp, nil, errTruncated
		}
		times[i] = v
		buf = buf[k:]
	}
	sp.Start, sp.Duration = time.Duration(times[0]), time.Duration(times[1])
	return sp, buf, nil
}

// appendReport encodes one report body (no tag byte); shared by the
// TagReport and TagReportBatch encodings.
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
		for _, st := range g.States {
			buf = st.Append(buf)
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

// decodeReport decodes one report body (no tag byte); shared by the
// TagReport and TagReportBatch decodings.
func decodeReport(buf []byte) (agent.Report, []byte, error) {
	var m agent.Report
	var err error
	if m.QueryID, buf, err = decodeString(buf); err != nil {
		return m, nil, err
	}
	if m.Host, buf, err = decodeString(buf); err != nil {
		return m, nil, err
	}
	if m.ProcName, buf, err = decodeString(buf); err != nil {
		return m, nil, err
	}
	tns, k := binary.Varint(buf)
	if k <= 0 {
		return m, nil, errTruncated
	}
	m.Time = time.Duration(tns)
	buf = buf[k:]
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return m, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		g := &advice.Group{}
		if g.Key, buf, err = decodeString(buf); err != nil {
			return m, nil, err
		}
		if g.Rep, buf, err = tuple.DecodeTuple(buf); err != nil {
			return m, nil, err
		}
		ns, k := binary.Uvarint(buf)
		if k <= 0 {
			return m, nil, errTruncated
		}
		buf = buf[k:]
		for s := uint64(0); s < ns; s++ {
			st, rest, err := agg.Decode(buf)
			if err != nil {
				return m, nil, err
			}
			g.States = append(g.States, st)
			buf = rest
		}
		m.Groups = append(m.Groups, g)
	}
	n, k = binary.Uvarint(buf)
	if k <= 0 {
		return m, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		var r tuple.Tuple
		if r, buf, err = tuple.DecodeTuple(buf); err != nil {
			return m, nil, err
		}
		m.Raws = append(m.Raws, r)
	}
	n, k = binary.Uvarint(buf)
	if k <= 0 {
		return m, nil, errTruncated
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		var d baggage.DropRecord
		if d.Slot, buf, err = decodeString(buf); err != nil {
			return m, nil, err
		}
		if d.Key, buf, err = decodeString(buf); err != nil {
			return m, nil, err
		}
		m.Drops = append(m.Drops, d)
	}
	return m, buf, nil
}

// Marshal encodes a bus message (agent.Install, agent.Uninstall, or
// agent.Report). Unknown message types return an error.
func Marshal(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case agent.Install:
		buf := []byte{TagInstall}
		buf = appendString(buf, m.QueryID)
		buf = binary.AppendVarint(buf, int64(m.TTL))
		buf = binary.AppendVarint(buf, int64(m.Limits.MaxGroups))
		buf = binary.AppendVarint(buf, int64(m.Limits.MaxRaws))
		buf = appendString(buf, m.Tenant)
		buf = binary.AppendVarint(buf, int64(m.Share))
		buf = binary.AppendUvarint(buf, uint64(len(m.Programs)))
		for _, p := range m.Programs {
			buf = AppendProgram(buf, p)
		}
		return buf, nil
	case agent.Renew:
		buf := []byte{TagRenew}
		buf = binary.AppendVarint(buf, int64(m.TTL))
		buf = appendStrings(buf, m.QueryIDs)
		return buf, nil
	case agent.Quarantine:
		buf := []byte{TagQuarantine}
		buf = appendString(buf, m.QueryID)
		buf = appendString(buf, m.Tracepoint)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = appendString(buf, m.Reason)
		buf = binary.AppendVarint(buf, int64(m.Time))
		return buf, nil
	case agent.Uninstall:
		buf := []byte{TagUninstall}
		return appendString(buf, m.QueryID), nil
	case agent.Heartbeat:
		// One allocation for the common frame: full-width Time, Interval
		// and Queries, counters below 2^20; append grows a busier one.
		buf := make([]byte, 0, 4+len(m.Host)+len(m.ProcName)+3*binary.MaxVarintLen64+3*agent.NumStats)
		buf = append(buf, TagHeartbeat)
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendVarint(buf, int64(m.Interval))
		buf = binary.AppendVarint(buf, int64(m.Queries))
		return appendCounters(buf, m.Stats.Values()[:]), nil
	case agent.StatusRequest:
		buf := []byte{TagStatusRequest}
		return appendString(buf, m.ID), nil
	case agent.StatusResponse:
		buf := []byte{TagStatusResponse}
		buf = appendString(buf, m.ID)
		return appendString(buf, m.Text), nil
	case agent.Report:
		buf := []byte{TagReport}
		return appendReport(buf, &m), nil
	case agent.ReportBatch:
		buf := []byte{TagReportBatch}
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendUvarint(buf, uint64(len(m.Reports)))
		for i := range m.Reports {
			buf = appendReport(buf, &m.Reports[i])
		}
		return buf, nil
	case agent.SpanBatch:
		buf := []byte{TagSpanBatch}
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendUvarint(buf, uint64(len(m.Spans)))
		for i := range m.Spans {
			buf = appendSpan(buf, &m.Spans[i])
		}
		return buf, nil
	case agent.TenantUsage:
		buf := []byte{TagTenantUsage}
		buf = appendString(buf, m.Host)
		buf = appendString(buf, m.ProcName)
		buf = binary.AppendVarint(buf, int64(m.Time))
		buf = binary.AppendUvarint(buf, uint64(len(m.Usage)))
		for _, u := range m.Usage {
			buf = appendString(buf, u.Tenant)
			buf = binary.AppendVarint(buf, u.Queries)
			buf = binary.AppendVarint(buf, u.Tuples)
		}
		return buf, nil
	case agent.ExplainStats:
		buf := []byte{TagExplainStats}
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
		return buf, nil
	default:
		return nil, fmt.Errorf("wire: cannot marshal %T", msg)
	}
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, errTruncated
	}
	tag, buf := buf[0], buf[1:]
	switch tag {
	case TagInstall:
		var m agent.Install
		var err error
		if m.QueryID, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		var hdr [3]int64
		for i := range hdr {
			v, k := binary.Varint(buf)
			if k <= 0 {
				return nil, errTruncated
			}
			hdr[i] = v
			buf = buf[k:]
		}
		m.TTL = time.Duration(hdr[0])
		m.Limits = advice.Limits{MaxGroups: int(hdr[1]), MaxRaws: int(hdr[2])}
		if m.Tenant, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		share, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		m.Share = int(share)
		buf = buf[k:]
		n, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		buf = buf[k:]
		for i := uint64(0); i < n; i++ {
			p, rest, err := DecodeProgram(buf)
			if err != nil {
				return nil, err
			}
			m.Programs = append(m.Programs, p)
			buf = rest
		}
		return m, nil
	case TagUninstall:
		var m agent.Uninstall
		var err error
		if m.QueryID, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		return m, nil
	case TagRenew:
		var m agent.Renew
		ttl, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		m.TTL = time.Duration(ttl)
		buf = buf[k:]
		ids, _, err := decodeStrings(buf)
		if err != nil {
			return nil, err
		}
		m.QueryIDs = ids
		return m, nil
	case TagQuarantine:
		var m agent.Quarantine
		var err error
		for _, dst := range []*string{&m.QueryID, &m.Tracepoint, &m.Host, &m.ProcName, &m.Reason} {
			if *dst, buf, err = decodeString(buf); err != nil {
				return nil, err
			}
		}
		tns, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		m.Time = time.Duration(tns)
		return m, nil
	case TagHeartbeat:
		var m agent.Heartbeat
		var err error
		if m.Host, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.ProcName, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		var hdr [3]int64
		for i := range hdr {
			v, k := binary.Varint(buf)
			if k <= 0 {
				return nil, errTruncated
			}
			hdr[i] = v
			buf = buf[k:]
		}
		m.Time, m.Interval, m.Queries = time.Duration(hdr[0]), time.Duration(hdr[1]), int(hdr[2])
		if _, err = decodeCounters(buf, m.Stats.Values()[:]); err != nil {
			return nil, err
		}
		return m, nil
	case TagStatusRequest:
		var m agent.StatusRequest
		var err error
		if m.ID, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		return m, nil
	case TagStatusResponse:
		var m agent.StatusResponse
		var err error
		if m.ID, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.Text, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		return m, nil
	case TagReport:
		m, _, err := decodeReport(buf)
		if err != nil {
			return nil, err
		}
		return m, nil
	case TagReportBatch:
		var m agent.ReportBatch
		var err error
		if m.Host, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.ProcName, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		tns, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		m.Time = time.Duration(tns)
		buf = buf[k:]
		n, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		buf = buf[k:]
		m.Reports = make([]agent.Report, 0, capHint(n, buf))
		for i := uint64(0); i < n; i++ {
			var r agent.Report
			if r, buf, err = decodeReport(buf); err != nil {
				return nil, err
			}
			m.Reports = append(m.Reports, r)
		}
		return m, nil
	case TagSpanBatch:
		var m agent.SpanBatch
		var err error
		if m.Host, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.ProcName, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		tns, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		m.Time = time.Duration(tns)
		buf = buf[k:]
		n, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		buf = buf[k:]
		m.Spans = make([]spans.Span, 0, capHint(n, buf))
		for i := uint64(0); i < n; i++ {
			var sp spans.Span
			if sp, buf, err = decodeSpan(buf); err != nil {
				return nil, err
			}
			m.Spans = append(m.Spans, sp)
		}
		return m, nil
	case TagTenantUsage:
		var m agent.TenantUsage
		var err error
		if m.Host, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.ProcName, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		tns, k := binary.Varint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		m.Time = time.Duration(tns)
		buf = buf[k:]
		n, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		buf = buf[k:]
		m.Usage = make([]agent.TenantQuota, 0, capHint(n, buf))
		for i := uint64(0); i < n; i++ {
			var u agent.TenantQuota
			if u.Tenant, buf, err = decodeString(buf); err != nil {
				return nil, err
			}
			var pair [2]int64
			for j := range pair {
				v, k := binary.Varint(buf)
				if k <= 0 {
					return nil, errTruncated
				}
				pair[j] = v
				buf = buf[k:]
			}
			u.Queries, u.Tuples = pair[0], pair[1]
			m.Usage = append(m.Usage, u)
		}
		return m, nil
	case TagExplainStats:
		var m agent.ExplainStats
		var err error
		if m.QueryID, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.Host, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		if m.ProcName, buf, err = decodeString(buf); err != nil {
			return nil, err
		}
		var hdr [2]int64
		for i := range hdr {
			v, k := binary.Varint(buf)
			if k <= 0 {
				return nil, errTruncated
			}
			hdr[i] = v
			buf = buf[k:]
		}
		m.Time = time.Duration(hdr[0])
		m.FlushNS = hdr[1]
		n, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, errTruncated
		}
		buf = buf[k:]
		m.Ops = make([]agent.OpStats, 0, capHint(n, buf))
		for i := uint64(0); i < n; i++ {
			var op agent.OpStats
			if op.Tracepoint, buf, err = decodeString(buf); err != nil {
				return nil, err
			}
			if buf, err = decodeCounters(buf, op.Values()[:]); err != nil {
				return nil, err
			}
			m.Ops = append(m.Ops, op)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("wire: bad message tag %d", tag)
	}
}

// BusCodec adapts this package to the bus.Codec interface.
type BusCodec struct{}

// Marshal implements bus.Codec.
func (BusCodec) Marshal(msg any) ([]byte, error) { return Marshal(msg) }

// Unmarshal implements bus.Codec.
func (BusCodec) Unmarshal(data []byte) (any, error) { return Unmarshal(data) }
