package wire

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/query"
	"repro/internal/randtest"
	"repro/internal/spans"
	"repro/internal/tuple"
)

// counterFrames re-ends full — a marshaled frame whose last field is the
// counter run of vals — the three ways a peer of another version, or a
// hostile one, could: short carries 5 counters fewer, extra 3 more (7, 8,
// 9), and huge claims 2^28 counters in a one-byte body.
func counterFrames(full []byte, vals []int64) (short, extra, huge []byte) {
	head := full[:len(full)-len(appendCounters(nil, vals))]
	short = appendCounters(bytes.Clone(head), vals[:len(vals)-5])
	extra = appendCounters(bytes.Clone(head), append(slices.Clone(vals), 7, 8, 9))
	huge = append(bytes.Clone(head), 0x80, 0x80, 0x80, 0x80, 0x01, 0x00)
	return short, extra, huge
}

// fullHeartbeat and fullExplain carry a distinct non-zero value in every
// counter, whatever counters internal/agent declares.
func fullHeartbeat() agent.Heartbeat {
	hb := agent.Heartbeat{Host: "h", ProcName: "p", Time: time.Second, Interval: time.Second, Queries: 2}
	for i := range hb.Stats.Values() {
		hb.Stats.Values()[i] = int64(i + 1)
	}
	return hb
}

func fullExplain() agent.ExplainStats {
	es := agent.ExplainStats{
		QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second, FlushNS: 1234,
		Ops: []agent.OpStats{{Tracepoint: "Tp"}},
	}
	for i := range es.Ops[0].Values() {
		es.Ops[0].Values()[i] = int64(100 + i)
	}
	return es
}

// messageSeeds marshals one instance of every bus message type, plus
// malformed shapes the decoder must reject without panicking or
// preallocating for absurd claimed counts.
func messageSeeds(t testing.TB) map[string][]byte {
	mustMarshal := func(msg any) []byte {
		buf, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	st := agg.New(agg.Sum)
	st.Add(tuple.Int(42))
	wst := agg.New(agg.Sum)
	wst.AddWeighted(tuple.Int(5), 10) // inexact state with weighted fields
	// sampledInstall builds an install whose single program carries rate:
	// the hostile-rate seeds below feed the decoder rates it must clamp
	// to "unsampled" rather than propagate into tuple weights.
	sampledInstall := func(rate float64) agent.Install {
		return agent.Install{
			QueryID: "QS",
			Programs: []*advice.Program{{
				QueryID: "QS", Tracepoint: "Tp",
				Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
				SampleRate: rate,
				Emit: &advice.EmitOp{
					Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
					GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
				},
			}},
		}
	}
	// badSpecInstall packs into a set whose group-by and aggregate positions
	// lie outside its one field: Unmarshal must reject it, as baggage
	// rejects such a spec in-band (TestInstallRejectsSpecOutsideFields).
	badSpecInstall := sampledInstall(0)
	badSpecInstall.Programs[0].Pack = &advice.PackOp{
		Slot: "QS.e", Source: []int{0},
		Spec: baggage.SetSpec{
			Kind: baggage.Agg, Fields: tuple.Schema{"host"},
			GroupBy: []int{3}, Aggs: []baggage.AggField{{Pos: -1, Fn: agg.Count}},
		},
	}
	// one wraps a report in the one frame results travel in.
	one := func(r agent.Report) agent.ReportBatch { return agent.ReportBatch{Reports: []agent.Report{r}} }
	hb, es := fullHeartbeat(), fullExplain()
	hbShort, hbExtra, hbHuge := counterFrames(mustMarshal(hb), hb.Stats.Values()[:])
	esShort, esExtra, esHuge := counterFrames(mustMarshal(es), es.Ops[0].Values()[:])
	return map[string][]byte{
		// Counter runs from a peer that knows fewer or more counters, and a
		// count no body could hold (see TestCounterRunTolerance).
		"heartbeat-short": hbShort, "heartbeat-extra": hbExtra, "heartbeat-huge-count": hbHuge,
		"explain-short": esShort, "explain-extra": esExtra, "explain-huge-count": esHuge,
		"install": mustMarshal(agent.Install{
			QueryID: "Q1",
			Programs: []*advice.Program{{
				QueryID: "Q1", Tracepoint: "Tp",
				Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
				Emit: &advice.EmitOp{
					Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
					GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
				},
			}},
		}),
		"tenant-install": mustMarshal(agent.Install{
			QueryID: "alice.Q1", Tenant: "alice",
			Programs: []*advice.Program{{
				QueryID: "alice.Q1", Tracepoint: "Tp",
				Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
				Emit: &advice.EmitOp{
					Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
					GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
				},
			}},
		}),
		"sampled-install":  mustMarshal(sampledInstall(0.1)),
		"bad-spec-install": mustMarshal(badSpecInstall),
		// Hostile sampling rates: the decoder clamps every one of these to
		// 0 (unsampled), so re-marshaling yields the canonical zero bits —
		// the fuzz fixpoint proves the clamp, not just the parse.
		"hostile-rate-zero-neg": mustMarshal(sampledInstall(math.Copysign(0, -1))),
		"hostile-rate-negative": mustMarshal(sampledInstall(-0.5)),
		"hostile-rate-gt1":      mustMarshal(sampledInstall(1.5)),
		"hostile-rate-nan":      mustMarshal(sampledInstall(math.NaN())),
		"hostile-rate-inf":      mustMarshal(sampledInstall(math.Inf(1))),
		// Subnormal rate whose inverse weight overflows to +Inf.
		"hostile-rate-huge-weight": mustMarshal(sampledInstall(5e-324)),
		"uninstall":                mustMarshal(agent.Uninstall{QueryID: "Q9"}),
		"renew": mustMarshal(agent.Renew{
			QueryIDs: []string{"Q1", "Q2"}, TTL: 30 * time.Second,
		}),
		"quarantine": mustMarshal(agent.Quarantine{
			QueryID: "Q1", Tracepoint: "Tp", Host: "h", ProcName: "p",
			Reason: "3 advice panics", Time: 7 * time.Second,
		}),
		"heartbeat": mustMarshal(agent.Heartbeat{
			Host: "h", ProcName: "p", Time: time.Second, Interval: time.Second, Queries: 1,
		}),
		// A combiner-tier heartbeat: the merge/forward counters ride the
		// same frame as agent heartbeats.
		"combiner-heartbeat": mustMarshal(agent.Heartbeat{
			Host: "combiners", ProcName: "combiner-mid-0",
			Time: 2 * time.Second, Interval: time.Second,
			Stats: agent.Stats{
				RowsReported: 12, Reports: 3, Batches: 2,
				CombinerReportsMerged: 9, CombinerFramesOut: 2,
			},
		}),
		"tenant-usage": mustMarshal(agent.TenantUsage{
			Host: "h", ProcName: "p", Time: 3 * time.Second,
			Usage: []agent.TenantQuota{
				{Tenant: "alice", Queries: 2, Tuples: 17},
				{Tenant: "bob", Queries: 1, Tuples: 3},
			},
		}),
		"status-request":  mustMarshal(agent.StatusRequest{ID: "s1"}),
		"status-response": mustMarshal(agent.StatusResponse{ID: "s1", Text: "ok"}),
		"report": mustMarshal(one(agent.Report{
			QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
			Groups: []*advice.Group{{
				Key: "k", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1)},
				States: []agg.State{*st},
			}},
			Raws: []tuple.Tuple{{tuple.Float(1.5)}},
		})),
		// A weighted (sampled) report: the inexact flag and the weighted
		// count/sum fields ride the state encoding.
		"weighted-report": mustMarshal(one(agent.Report{
			QueryID: "QS", Host: "h", ProcName: "p", Time: 5 * time.Second,
			Groups: []*advice.Group{{
				Key: "k", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1)},
				States: []agg.State{*wst},
			}},
		})),
		// Decodable, but malformed for any query: two groups of one report
		// disagree on state count and aggregate. The codec accepts them;
		// the merger must reject the report (see mergeDecoded).
		"ragged-report": mustMarshal(one(agent.Report{
			QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
			Groups: []*advice.Group{
				{Key: "a", Rep: tuple.Tuple{tuple.String("h")}, States: []agg.State{*st, *wst}},
				{Key: "b", Rep: tuple.Tuple{tuple.String("h")}, States: []agg.State{*st}},
				{Key: "a", States: []agg.State{agg.Make(agg.Max), *wst}},
			},
		})),
		// Ragged the other way: later groups carry more states, and a wider
		// Rep, than the first one sized the decoder's slabs for.
		"ragged-growing-report": mustMarshal(one(agent.Report{
			QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
			Groups: []*advice.Group{
				{Key: "a", Rep: tuple.Tuple{tuple.String("h")}, States: []agg.State{*st}},
				{Key: "b", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1), tuple.Null}, States: []agg.State{*st, *wst, *st}},
				{Key: "c"},
				{Key: "d", Rep: tuple.Tuple{tuple.String("h")}, States: []agg.State{*wst, *st}},
			},
			Raws: []tuple.Tuple{{tuple.Int(1)}, {tuple.Int(1), tuple.Int(2), tuple.Int(3)}, {}},
		})),
		// One-report batches whose report claims 2^31 groups in a 41-byte
		// frame.
		"huge-groups": append([]byte{TagReportBatch, 0x01, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02,
			0x80, 0x80, 0x80, 0x80, 0x08}, make([]byte, 27)...),
		// 12 groups where the unread bytes could hold 11: under the old
		// one-byte-per-element bound, over the group bound.
		"groups-past-frame": append([]byte{TagReportBatch, 0x01, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02,
			12}, make([]byte, 35)...),
		// One group claiming 100 states with 20 bytes — not two states — left.
		"states-past-frame": append([]byte{TagReportBatch, 0x01, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02,
			0x01, 0x01, 'k', 0x00, 100}, make([]byte, 20)...),
		// No groups, and 2^21 raw rows claimed in a four-byte body.
		"raws-past-frame": {TagReportBatch, 0x01, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02,
			0x00, 0x80, 0x80, 0x80, 0x01, 0x00, 0x00, 0x00, 0x00},
		"report-batch": mustMarshal(agent.ReportBatch{
			Reports: []agent.Report{
				{QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
					Raws: []tuple.Tuple{{tuple.Int(7)}}},
				{QueryID: "Q2", Host: "h", ProcName: "p", Time: 5 * time.Second},
			},
		}),
		"span-batch": mustMarshal(agent.SpanBatch{
			Host: "h", ProcName: "p", Time: 5 * time.Second,
			Spans: []spans.Span{
				{TraceID: 0xdead, SpanID: 0xdead, Tracepoint: "root",
					Host: "h", ProcName: "p", Start: time.Millisecond},
				{TraceID: 0xdead, SpanID: 0xbeef, Parents: []uint64{0xdead, 1 << 63},
					Tracepoint: "child", Host: "h2", ProcName: "p2",
					Start: 2 * time.Millisecond, Duration: time.Millisecond},
			},
		}),
		"explain-stats": mustMarshal(agent.ExplainStats{
			QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second, FlushNS: 1234,
			Ops: []agent.OpStats{{Tracepoint: "Tp", Costs: advice.Costs[int64]{
				Invocations: 10, Sampled: 1, DroppedByJoin: 2,
				TuplesFiltered: 3, TuplesPacked: 4, PackedBytes: 500, PackRefused: 1,
				PackEvictedGroups: 1, PackEvictedTuples: 2, PackEvictedBytes: 64,
				TuplesEmitted: 5, Panics: 0,
			}}},
		}),
		"bad-tag": {0x7f},
		// Install claiming 2^28 programs in a one-byte body.
		"huge-count": {TagInstall, 0x01, 'q', 0xff, 0xff, 0xff, 0x7f, 0x00},
		// Batch claiming 2^28 reports in a one-byte body.
		"huge-batch": {TagReportBatch, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// SpanBatch claiming 2^28 spans in a one-byte body.
		"huge-span-batch": {TagSpanBatch, 0x01, 'h', 0x01, 'p', 0x02, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// Span claiming 2^28 parents in a one-byte body.
		"huge-parents": {TagSpanBatch, 0x01, 'h', 0x01, 'p', 0x02, 0x01, 0x05, 0x06, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// ExplainStats claiming 2^28 ops in a one-byte body.
		"huge-explain": {TagExplainStats, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02, 0x04, 0xff, 0xff, 0xff, 0x7f, 0x00},
		// TenantUsage claiming 2^28 quota entries in a one-byte body.
		"huge-usage": {TagTenantUsage, 0x01, 'h', 0x01, 'p', 0x02, 0xff, 0xff, 0xff, 0x7f, 0x00},
	}
}

// exprSeeds encodes a deeply nested expression plus malformed shapes.
func exprSeeds(t testing.TB) map[string][]byte {
	q, err := query.Parse(`From e In Tp Where (e.a + 2) * e.b >= 10 && !(e.s = "x") || e.t - 1.5 < 0 Select COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"nested":  AppendExpr(nil, q.Where[0]),
		"bad-tag": {0x7f},
		"empty":   {},
	}
}

// newMergers returns the two kinds of merger a frame can reach: a combiner
// tier's (no query knowledge) and a frontend's (here the seed installs'
// GroupBy host Select host, COUNT).
func newMergers() []*advice.Merger {
	return []*advice.Merger{
		advice.NewMerger(nil, advice.Unbounded),
		advice.NewMerger(&advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
			GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
		}, advice.Limits{MaxGroups: 2, MaxRaws: 2}),
	}
}

// mergeDecoded feeds a decoded report to ms, twice, and then materializes
// rows. Whatever shape the frame smuggled in, a merger either folds it or
// rejects it; neither path may panic.
func mergeDecoded(ms []*advice.Merger, r *agent.Report) {
	for _, m := range ms {
		for pass := 0; pass < 2; pass++ { // second pass takes the merge-into-existing path
			_, _ = m.Merge(r.Groups, r.Raws, r.Drops)
		}
		if m.Op != nil {
			m.Rows()
		}
	}
}

// snapshot renders what ms hold, in a copy of its own: every group's key,
// Rep and encoded states, every raw row, and the Rows of those that know
// their query.
func snapshot(ms []*advice.Merger) string {
	var b strings.Builder
	for _, m := range ms {
		for _, g := range m.Groups() {
			fmt.Fprintf(&b, "%q %v", g.Key, g.Rep)
			for i := range g.States {
				fmt.Fprintf(&b, " %x", g.States[i].Append(nil))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintln(&b, m.Raws())
		if m.Op != nil {
			fmt.Fprintln(&b, m.Rows())
		}
	}
	return b.String()
}

// scribble overwrites every byte of frame.
func scribble(frame []byte) {
	for i := range frame {
		frame[i] = ^frame[i]
	}
}

// FuzzUnmarshal: decoding arbitrary bytes must never panic, and any
// successfully decoded message must re-marshal to a stable canonical
// encoding (Marshal ∘ Unmarshal is a fixpoint). Every report of a decoded
// ReportBatch must also survive a Merger, which keeps nothing of the frame
// the report borrows: what it holds does not change when the frame is
// overwritten. A Decoder that has decoded another report frame before —
// a link's, reusing that frame's memory — must decode the same message, or
// fail with the same error.
func FuzzUnmarshal(f *testing.F) {
	for _, s := range messageSeeds(f) {
		f.Add(s)
	}
	primer, _ := reuseFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Decoder
		if _, err := d.Decode(primer); err != nil {
			t.Fatal(err)
		}
		lent, lentErr := d.Decode(bytes.Clone(data))
		frame := bytes.Clone(data) // the decoded message borrows it; scribbled below
		msg, err := Unmarshal(frame)
		if fmt.Sprint(lentErr) != fmt.Sprint(err) {
			t.Fatalf("a reused Decoder failed with %v, Unmarshal with %v", lentErr, err)
		}
		if err != nil {
			return
		}
		ms := newMergers()
		if m, ok := msg.(agent.ReportBatch); ok {
			for i := range m.Reports {
				mergeDecoded(ms, &m.Reports[i])
			}
		}
		enc, err := Marshal(msg)
		if err != nil {
			t.Fatalf("re-marshal of decoded %T: %v", msg, err)
		}
		if lentEnc, err := Marshal(lent); err != nil || !bytes.Equal(lentEnc, enc) {
			t.Fatalf("a reused Decoder decoded %x, Unmarshal %x", lentEnc, enc)
		}
		msg2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-unmarshal of re-marshaled %T: %v", msg, err)
		}
		enc2, err := Marshal(msg2)
		if err != nil {
			t.Fatalf("second re-marshal of %T: %v", msg2, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%T encoding is not a fixpoint:\n%x\n%x", msg, enc, enc2)
		}
		before := snapshot(ms)
		if scribble(frame); snapshot(ms) != before {
			t.Fatalf("overwriting the frame changed what the mergers hold:\n%s\nwas\n%s", snapshot(ms), before)
		}
	})
}

// FuzzDecodeExpr: same contract for readExpr, the expression decoder an
// Install frame's filters and computed columns go through.
func FuzzDecodeExpr(f *testing.F) {
	for _, s := range exprSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := read(data, readTopExpr)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decode returned more bytes than it was given")
		}
		enc := AppendExpr(nil, e)
		e2, tail, err := read(enc, readTopExpr)
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-decode of re-encoded expr %s: err=%v trailing=%d", e, err, len(tail))
		}
		if enc2 := AppendExpr(nil, e2); !bytes.Equal(enc, enc2) {
			t.Fatalf("expr encoding is not a fixpoint:\n%x\n%x", enc, enc2)
		}
		checkBoundExpr(t, e)
	})
}

// exprTuple is the working tuple FuzzDecodeExpr evaluates decoded
// expressions on: one value of every kind.
var exprTuple = tuple.Tuple{tuple.Int(7), tuple.Float(2.5), tuple.String("a"), tuple.Bool(true), tuple.Null, tuple.Int(0)}

// checkBoundExpr binds e as an agent binds a decoded filter or compute and
// evaluates it on exprTuple: the result must encode as the one query's
// resolver gives. Its field references are bound round-robin to the
// tuple's positions and one past them, and every fourth is left unbound.
// An expression with a nil operand has no reference result (query's Eval
// panics on it); bound, it must still evaluate.
func checkBoundExpr(t *testing.T, e query.Expr) {
	bindings := map[query.FieldRef]int{}
	for i, ref := range query.FieldRefs(e) {
		if i%4 != 3 {
			bindings[ref] = i % (len(exprTuple) + 1)
		}
	}
	bound := advice.BindExpr(e, bindings)
	got := tuple.AppendValue(nil, bound.Eval(exprTuple))
	want, ok := func() (v []byte, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return tuple.AppendValue(nil, e.Eval(func(ref query.FieldRef) tuple.Value {
			pos, ok := bindings[ref]
			if !ok || pos >= len(exprTuple) {
				return tuple.Null
			}
			return exprTuple[pos]
		})), true
	}()
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("%s bound evaluates to %x, the reference to %x", e, got, want)
	}
}

func TestRegenWireFuzzCorpus(t *testing.T) {
	randtest.RegenCorpus(t, "FuzzUnmarshal", messageSeeds(t))
	randtest.RegenCorpus(t, "FuzzDecodeExpr", exprSeeds(t))
}
