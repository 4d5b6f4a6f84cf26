package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// paperQueryTexts exercises the codec against realistic compiled plans.
var paperQueryTexts = []string{
	`From incr In DataNodeMetrics.incrBytesRead
	 GroupBy incr.host Select incr.host, SUM(incr.delta)`,
	`From incr In DataNodeMetrics.incrBytesRead
	 Join cl In First(ClientProtocols) On cl -> incr
	 GroupBy cl.procName Select cl.procName, SUM(incr.delta)`,
	`From DNop In DN.DataTransferProtocol
	 Join getloc In NN.GetBlockLocations On getloc -> DNop
	 Join st In StressTest.DoNextOp On st -> getloc
	 Where st.host != DNop.host
	 GroupBy DNop.host, getloc.replicas
	 Select DNop.host, getloc.replicas, COUNT`,
	`From response In SendResponse
	 Join request In MostRecent(ReceiveRequest) On request -> response
	 Select response.time - request.time`,
}

func codecRegistry() *tracepoint.Registry {
	reg := tracepoint.NewRegistry()
	reg.Define("DataNodeMetrics.incrBytesRead", "delta")
	reg.Define("ClientProtocols")
	reg.Define("DN.DataTransferProtocol", "op", "size")
	reg.Define("NN.GetBlockLocations", "src", "replicas")
	reg.Define("StressTest.DoNextOp", "op")
	reg.Define("SendResponse")
	reg.Define("ReceiveRequest")
	return reg
}

func TestProgramCodecRoundtripsPaperPlans(t *testing.T) {
	reg := codecRegistry()
	for i, text := range paperQueryTexts {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		q.Name = "q"
		p, err := plan.Compile(q, reg, nil, plan.Optimized)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		for _, prog := range p.Programs {
			buf := AppendProgram(nil, prog)
			got, rest, err := read(buf, readProgram)
			if err != nil {
				t.Fatalf("q%d %s: %v", i, prog.Tracepoint, err)
			}
			if len(rest) != 0 {
				t.Fatalf("q%d %s: %d trailing bytes", i, prog.Tracepoint, len(rest))
			}
			// The paper-notation rendering covers every field that affects
			// behaviour except emit/bindings details; compare it plus key
			// fields directly.
			if got.String() != prog.String() {
				t.Errorf("q%d %s:\nwant %s\ngot  %s", i, prog.Tracepoint, prog, got)
			}
			if got.QueryID != prog.QueryID || got.Tracepoint != prog.Tracepoint {
				t.Errorf("q%d: identity fields differ", i)
			}
			if (got.Emit == nil) != (prog.Emit == nil) {
				t.Fatalf("q%d: emit presence differs", i)
			}
			if got.Emit != nil && len(got.Emit.Cols) != len(prog.Emit.Cols) {
				t.Errorf("q%d: emit cols differ", i)
			}
			if len(got.Filters) != len(prog.Filters) {
				t.Errorf("q%d: filters differ", i)
			}
			for fi := range got.Filters {
				if len(got.Filters[fi].Bindings()) != len(prog.Filters[fi].Bindings()) {
					t.Errorf("q%d: filter bindings differ", i)
				}
			}
		}
	}
}

func TestExprCodecRoundtrip(t *testing.T) {
	q, err := query.Parse(`From e In Tp Where (e.a + 2) * e.b >= 10 && !(e.s = "x") || e.t - 1.5 < 0 Select COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	expr := q.Where[0]
	buf := AppendExpr(nil, expr)
	got, rest, err := read(buf, readTopExpr)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing)", err, len(rest))
	}
	if got.String() != expr.String() {
		t.Fatalf("expr roundtrip: %s != %s", got, expr)
	}
}

func TestMessageCodecRoundtrip(t *testing.T) {
	// Install.
	prog := &advice.Program{
		QueryID: "Q1", Tracepoint: "Tp",
		Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
		Emit: &advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
			GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
		},
	}
	in := agent.Install{QueryID: "Q1", Programs: []*advice.Program{prog}}
	buf, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gi, ok := got.(agent.Install)
	if !ok || gi.QueryID != "Q1" || len(gi.Programs) != 1 {
		t.Fatalf("install roundtrip = %#v", got)
	}

	// Uninstall.
	buf, _ = Marshal(agent.Uninstall{QueryID: "Q9"})
	got, err = Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gu, ok := got.(agent.Uninstall); !ok || gu.QueryID != "Q9" {
		t.Fatalf("uninstall roundtrip = %#v", got)
	}

	// Report with groups and raws.
	st := agg.New(agg.Sum)
	st.Add(tuple.Int(42))
	rep := agent.Report{
		QueryID: "Q1", Host: "h", ProcName: "p", Time: 5 * time.Second,
		Groups: []*advice.Group{{
			Key: "k", Rep: tuple.Tuple{tuple.String("h"), tuple.Int(1)},
			States: []agg.State{*st},
		}},
		Raws: []tuple.Tuple{{tuple.Float(1.5)}},
	}
	// ReportBatch: reports coalesced into one frame survive intact and in
	// order, each naming its sender.
	batch := agent.ReportBatch{
		Reports: []agent.Report{rep, {QueryID: "Q2", Host: "h2", ProcName: "p", Time: 6 * time.Second}},
	}
	buf, err = Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	gb, ok := got.(agent.ReportBatch)
	if !ok || len(gb.Reports) != 2 {
		t.Fatalf("batch roundtrip = %#v", got)
	}
	gr := gb.Reports[0]
	if gr.QueryID != "Q1" || gr.Host != "h" || gr.Time != 5*time.Second || len(gr.Groups) != 1 || len(gr.Raws) != 1 {
		t.Fatalf("report roundtrip = %#v", gr)
	}
	if gr.Groups[0].States[0].Result().Int() != 42 {
		t.Fatalf("state roundtrip = %v", gr.Groups[0].States[0].Result())
	}
	if r := gb.Reports[1]; r.QueryID != "Q2" || r.Host != "h2" || r.Time != 6*time.Second {
		t.Fatalf("second report = %#v", r)
	}

	// Unknown type, and unknown tags: 3, which once framed a bare Report,
	// is one of them.
	if _, err := Marshal(struct{}{}); err == nil {
		t.Error("unknown type should fail to marshal")
	}
	if _, err := Marshal(rep); err == nil {
		t.Error("a bare Report should fail to marshal; reports travel in a ReportBatch")
	}
	for _, frame := range [][]byte{{99}, {3, 0x01, 'q', 0x01, 'h', 0x01, 'p', 0x02, 0x00, 0x00, 0x00}} {
		if _, err := Unmarshal(frame); err == nil || !strings.Contains(err.Error(), "bad message tag") {
			t.Errorf("Unmarshal(%x) error = %v, want bad message tag", frame, err)
		}
	}
}

// TestGovernanceCodecRoundtrip covers the safety-valve additions to the
// wire format: install leases and accumulator limits, per-program safety
// bounds, lease renewals, quarantine notices, report drop records, and
// the governance counters in heartbeat stats.
func TestGovernanceCodecRoundtrip(t *testing.T) {
	roundtrip := func(msg any) any {
		t.Helper()
		buf, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	prog := &advice.Program{
		QueryID: "Q1", Tracepoint: "Tp",
		Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
		Safety: advice.Safety{
			Budget:      baggage.Budget{MaxBytes: 4096, MaxTuples: -1},
			FaultLimit:  5,
			CostCeiling: -1,
		},
		Emit: &advice.EmitOp{
			Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}},
			GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT"},
		},
	}
	in := agent.Install{
		QueryID:  "Q1",
		Programs: []*advice.Program{prog},
		TTL:      45 * time.Second,
		Limits:   advice.Limits{MaxGroups: 128, MaxRaws: -1},
	}
	gi := roundtrip(in).(agent.Install)
	if gi.TTL != in.TTL || gi.Limits != in.Limits {
		t.Fatalf("install lease/limits roundtrip = %+v", gi)
	}
	if got := gi.Programs[0].Safety; got != prog.Safety {
		t.Fatalf("program safety roundtrip = %+v, want %+v", got, prog.Safety)
	}

	rn := agent.Renew{QueryIDs: []string{"Q1", "Q2"}, TTL: 9 * time.Second}
	gr := roundtrip(rn).(agent.Renew)
	if gr.TTL != rn.TTL || len(gr.QueryIDs) != 2 || gr.QueryIDs[0] != "Q1" || gr.QueryIDs[1] != "Q2" {
		t.Fatalf("renew roundtrip = %+v", gr)
	}

	qn := agent.Quarantine{
		QueryID: "Q1", Tracepoint: "Tp", Host: "h3", ProcName: "dn",
		Reason: "3 advice panics at Tp (last: boom)", Time: 11 * time.Second,
	}
	if gq := roundtrip(qn).(agent.Quarantine); gq != qn {
		t.Fatalf("quarantine roundtrip = %+v, want %+v", gq, qn)
	}

	rep := agent.Report{
		QueryID: "Q1", Host: "h", ProcName: "p", Time: time.Second,
		Drops: []baggage.DropRecord{
			{Slot: "Q1.a", Key: "\x02k1"},
			{Slot: "Q1.b"}, // whole-slot tombstone
		},
	}
	grep := roundtrip(agent.ReportBatch{Reports: []agent.Report{rep}}).(agent.ReportBatch).Reports[0]
	if len(grep.Drops) != 2 || grep.Drops[0] != rep.Drops[0] || grep.Drops[1] != rep.Drops[1] {
		t.Fatalf("report drops roundtrip = %+v", grep.Drops)
	}

	// Fill every Stats field with a distinct value via reflection — not
	// through Stats.Values, which the codec itself uses — so a field the
	// array view missed or misplaced would round-trip to the wrong value
	// and the struct comparison below would catch it.
	hb := agent.Heartbeat{
		Host: "h", ProcName: "p", Time: time.Second, Interval: time.Second, Queries: 2,
	}
	sv := reflect.ValueOf(&hb.Stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(i + 1))
	}
	ghb := roundtrip(hb).(agent.Heartbeat)
	if ghb.Stats != hb.Stats {
		gv := reflect.ValueOf(ghb.Stats)
		for i := 0; i < sv.NumField(); i++ {
			if gv.Field(i).Int() != sv.Field(i).Int() {
				t.Errorf("heartbeat stats field %s: got %d, want %d (missing wire codec support?)",
					sv.Type().Field(i).Name, gv.Field(i).Int(), sv.Field(i).Int())
			}
		}
	}
}

// TestInstallRejectsSpecOutsideFields: a pack spec reaches agents inside
// an install and is decoded by the same baggage.ReadSpec that decodes
// specs arriving in-band, so one whose group-by or aggregate position lies
// outside its fields fails at Unmarshal instead of being woven and
// quarantined on its first crossing.
func TestInstallRejectsSpecOutsideFields(t *testing.T) {
	install := func(spec baggage.SetSpec) []byte {
		buf, err := Marshal(agent.Install{QueryID: "Q1", Programs: []*advice.Program{{
			QueryID: "Q1", Tracepoint: "Tp", Observe: []int{0}, ObserveFields: tuple.Schema{"e.host"},
			Pack: &advice.PackOp{Slot: "Q1.e", Spec: spec, Source: []int{0}},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	fields := tuple.Schema{"host"}
	if _, err := Unmarshal(install(baggage.SetSpec{Kind: baggage.Agg, Fields: fields,
		GroupBy: []int{0}, Aggs: []baggage.AggField{{Pos: 0, Fn: agg.Count}}})); err != nil {
		t.Fatalf("install with a well-formed spec: %v", err)
	}
	for name, spec := range map[string]baggage.SetSpec{
		"group-by past the fields":  {Kind: baggage.Agg, Fields: fields, GroupBy: []int{1}},
		"negative group-by":         {Kind: baggage.Agg, Fields: fields, GroupBy: []int{-1}},
		"aggregate past the fields": {Kind: baggage.Agg, Fields: fields, Aggs: []baggage.AggField{{Pos: 1, Fn: agg.Sum}}},
		"negative aggregate":        {Kind: baggage.Agg, Fields: fields, Aggs: []baggage.AggField{{Pos: -1, Fn: agg.Sum}}},
	} {
		if msg, err := Unmarshal(install(spec)); err == nil {
			t.Errorf("%s: install decoded to %+v, want an error", name, msg)
		}
	}
	if _, err := Unmarshal(messageSeeds(t)["bad-spec-install"]); err == nil {
		t.Error("the bad-spec-install fuzz seed decodes, want an error")
	}
}

// TestInstallRejectsNegativePositions: every working-tuple position an
// install carries indexes a tuple on every fire, so one below zero (below
// -1 for an emit column, where -1 is a bare COUNT) would panic each fire
// into the recover boundary until the program is quarantined. Unmarshal
// rejects it instead, one case per kind of position.
func TestInstallRejectsNegativePositions(t *testing.T) {
	where := query.Binary{Op: query.OpGt, L: query.FieldRef{Alias: "e", Field: "v"}, R: query.Literal{Value: tuple.Int(0)}}
	install := func(mutate func(p *advice.Program, bindings map[query.FieldRef]int)) []byte {
		bindings := map[query.FieldRef]int{{Alias: "e", Field: "v"}: 1}
		p := &advice.Program{
			QueryID: "Q1", Tracepoint: "Tp", Observe: []int{0, 5}, ObserveFields: tuple.Schema{"e.host", "e.v"},
			Pack: &advice.PackOp{Slot: "Q1.e", Spec: baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"e.host"}}, Source: []int{0}},
			Emit: &advice.EmitOp{
				Cols:    []advice.EmitCol{{Pos: 0}, {IsAgg: true, Pos: -1, Fn: agg.Count}, {IsAgg: true, Pos: 2, Fn: agg.Sum}},
				GroupBy: []int{0}, Schema: tuple.Schema{"host", "COUNT", "SUM"},
			},
		}
		mutate(p, bindings)
		p.Filters = []advice.Expr{advice.BindExpr(where, bindings)}
		p.Computes = []advice.Expr{advice.BindExpr(where.L, bindings)}
		buf, err := Marshal(agent.Install{QueryID: "Q1", Programs: []*advice.Program{p}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if _, err := Unmarshal(install(func(*advice.Program, map[query.FieldRef]int) {})); err != nil {
		t.Fatalf("install with every position in range: %v", err)
	}
	for name, mutate := range map[string]func(p *advice.Program, bindings map[query.FieldRef]int){
		"negative observe":     func(p *advice.Program, _ map[query.FieldRef]int) { p.Observe[1] = -3 },
		"negative pack source": func(p *advice.Program, _ map[query.FieldRef]int) { p.Pack.Source[0] = -1 },
		"negative group-by":    func(p *advice.Program, _ map[query.FieldRef]int) { p.Emit.GroupBy[0] = -1 },
		"negative binding":     func(_ *advice.Program, b map[query.FieldRef]int) { b[query.FieldRef{Alias: "e", Field: "v"}] = -1 },
		"emit column below -1": func(p *advice.Program, _ map[query.FieldRef]int) { p.Emit.Cols[2].Pos = -2 },
	} {
		if msg, err := Unmarshal(install(mutate)); err == nil {
			t.Errorf("%s: install decoded to %+v, want an error", name, msg)
		}
	}
}

// read runs one of this package's readers over the front of buf, as
// Decoder.Decode runs readMessage, and returns what it read, the unread
// bytes and the first failure.
func read[T any](buf []byte, readT func(*tuple.Reader) T) (T, []byte, error) {
	r := tuple.NewReader(buf)
	v := readT(&r)
	if err := r.Err(); err != nil {
		var zero T
		return zero, nil, err
	}
	return v, r.Rest(), nil
}

// readTopExpr reads one whole expression tree, as readProgram reads each
// filter and computed column of an Install.
func readTopExpr(r *tuple.Reader) query.Expr { return readExpr(r, 0) }

// TestDecodeExprDepthCap: nesting beyond maxExprDepth fails the decode with
// an ordinary error. Without the cap this input — 24 MiB of nested NOT
// operators, well under the bus's frame limit — ends the process with a
// stack overflow.
func TestDecodeExprDepthCap(t *testing.T) {
	deep := bytes.Repeat([]byte{exprUnary, '!'}, 12<<20)
	if _, _, err := read(deep, readTopExpr); err != errExprDepth {
		t.Errorf("readExpr of 12 Mi nested unaries: err = %v, want %v", err, errExprDepth)
	}
	atCap := append(bytes.Repeat([]byte{exprUnary, '!'}, maxExprDepth), exprNil)
	if _, rest, err := read(atCap, readTopExpr); err != nil || len(rest) != 0 {
		t.Errorf("readExpr of %d nested unaries: err = %v, %d bytes left", maxExprDepth, err, len(rest))
	}
}

// TestEveryPrefixIsTruncated: whichever codec runs out of bytes — tuple,
// agg, baggage's spec or this package's own — a frame cut short fails with
// the one sentinel, tuple.ErrTruncated, and never panics.
func TestEveryPrefixIsTruncated(t *testing.T) {
	for name, frame := range messageSeeds(t) {
		if _, err := Unmarshal(frame); err != nil {
			continue // a malformed seed; only whole frames have prefixes worth cutting
		}
		for cut := 0; cut < len(frame); cut++ {
			if msg, err := Unmarshal(frame[:cut]); !errors.Is(err, tuple.ErrTruncated) {
				t.Errorf("%s cut at %d of %d: got %+v, err %v, want tuple.ErrTruncated", name, cut, len(frame), msg, err)
			}
		}
	}
	for name, frame := range exprSeeds(t) {
		if _, rest, err := read(frame, readTopExpr); err != nil || len(rest) != 0 {
			continue
		}
		for cut := 0; cut < len(frame); cut++ {
			if e, _, err := read(frame[:cut], readTopExpr); !errors.Is(err, tuple.ErrTruncated) {
				t.Errorf("expr %s cut at %d of %d: got %v, err %v, want tuple.ErrTruncated", name, cut, len(frame), e, err)
			}
		}
	}
}

// TestCounterRunTolerance: the counter runs of Heartbeat and ExplainStats
// are count-prefixed, so frames between versions that know different
// counters degrade instead of failing. Fewer counters than known: the
// missing tail reads as zero. More: the extras are ignored and re-marshal
// yields the canonical frame of the known counters. A count the remaining
// bytes cannot hold is rejected as truncated.
func TestCounterRunTolerance(t *testing.T) {
	decode := func(buf []byte) any {
		t.Helper()
		msg, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal(%x): %v", buf, err)
		}
		return msg
	}
	hb, es := fullHeartbeat(), fullExplain()
	for _, c := range []struct {
		name  string
		msg   any
		vals  []int64                      // the message's counters, aliased
		decod func(msg any) (any, []int64) // a decoded message and its counters
	}{
		{"heartbeat", hb, hb.Stats.Values()[:], func(msg any) (any, []int64) {
			m := msg.(agent.Heartbeat)
			return m, m.Stats.Values()[:]
		}},
		{"explain", es, es.Ops[0].Values()[:], func(msg any) (any, []int64) {
			m := msg.(agent.ExplainStats)
			return m, m.Ops[0].Values()[:]
		}},
	} {
		full, err := Marshal(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		short, extra, huge := counterFrames(full, c.vals)

		_, got := c.decod(decode(short))
		known := len(c.vals) - 5
		if !slices.Equal(got[:known], c.vals[:known]) || !slices.Equal(got[known:], make([]int64, 5)) {
			t.Errorf("%s, 5 counters short: decoded %v, want %v then five zeros", c.name, got, c.vals[:known])
		}

		msg, got := c.decod(decode(extra))
		if !slices.Equal(got, c.vals) {
			t.Errorf("%s, 3 extra counters: decoded %v, want %v", c.name, got, c.vals)
		}
		if again, err := Marshal(msg); err != nil || !bytes.Equal(again, full) {
			t.Errorf("%s, 3 extra counters: re-marshal = %x (err %v), want the canonical %x", c.name, again, err, full)
		}

		if _, err := Unmarshal(huge); !errors.Is(err, tuple.ErrTruncated) {
			t.Errorf("%s, count beyond the body: err = %v, want tuple.ErrTruncated", c.name, err)
		}
	}
}

// TestIdleHeartbeatSize pins what the count-prefixed counter run costs on
// the wire: one byte per idle counter plus the count byte, no names, no
// per-link state — 49 bytes with this tree's 25 counters, where the
// positional frame of 24 counters it replaced took 47. Heartbeats dominate
// the wire bytes of a quiet deployment.
func TestIdleHeartbeatSize(t *testing.T) {
	b := bus.New()
	a := agent.New(nil, tracepoint.ProcInfo{Host: "h1", ProcName: "dn"}, tracepoint.NewRegistry(), b, time.Second)
	defer a.Close()
	var hb agent.Heartbeat
	b.Subscribe(agent.HealthTopic, func(msg any) { hb, _ = msg.(agent.Heartbeat) })
	a.Flush()
	buf, err := Marshal(hb)
	if err != nil {
		t.Fatal(err)
	}
	// Tag; two 2-byte names with their lengths; wall-clock Time (9),
	// 1s Interval (5), Queries; the count; the counters, all one byte but
	// SampleRateMilli = 1000.
	if want := 1 + 3 + 3 + 9 + 5 + 1 + 1 + agent.NumStats + 1; len(buf) != want {
		t.Errorf("idle heartbeat is %d bytes, want %d: %x", len(buf), want, buf)
	}
}

// TestDistributedDeployment is the full multi-process flow over real TCP:
// a frontend process and a monitored "worker" process, each with its own
// local bus, connected through the central pub/sub server. A query
// installed at the frontend weaves advice in the worker; baggage crosses
// the process boundary via serialized bytes; reports flow back and
// aggregate at the frontend.
func TestDistributedDeployment(t *testing.T) {
	const (
		controlTopic = agent.ControlTopic
		resultsTopic = agent.ResultsTopic
	)
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Frontend process.
	feBus := bus.New()
	feReg := tracepoint.NewRegistry()
	feReg.Define("API.Receive", "app")
	feReg.Define("Storage.Read", "bytes")
	frontend := core.New(feBus, feReg)
	feLink, err := bus.Connect(feBus, srv.Addr(), BusCodec{},
		[]string{controlTopic}, []string{resultsTopic})
	if err != nil {
		t.Fatal(err)
	}
	defer feLink.Close()

	// Worker process: its own registry and agent, bridged the other way.
	wBus := bus.New()
	wReg := tracepoint.NewRegistry()
	apiTp := wReg.Define("API.Receive", "app")
	readTp := wReg.Define("Storage.Read", "bytes")
	ag := agent.New(nil, tracepoint.ProcInfo{Host: "worker-1", ProcName: "storage"}, wReg, wBus, 0)
	wLink, err := bus.Connect(wBus, srv.Addr(), BusCodec{},
		[]string{resultsTopic}, []string{controlTopic})
	if err != nil {
		t.Fatal(err)
	}
	defer wLink.Close()

	// Install at the frontend; the advice must arrive and weave remotely.
	h, err := frontend.Install(`From r In Storage.Read
		Join api In First(API.Receive) On api -> r
		GroupBy api.app
		Select api.app, SUM(r.bytes), COUNT`)
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return readTp.Enabled() }, 3*time.Second) {
		t.Fatal("advice did not weave in the worker within 3s")
	}

	// Drive requests in the worker, with an explicit baggage wire hop
	// between the "api" and "storage" moments of each request.
	for i := 0; i < 10; i++ {
		ctx := tracepoint.WithProc(context.Background(),
			tracepoint.ProcInfo{Host: "api-1", ProcName: "api"})
		ctx = baggage.NewContext(ctx, baggage.New())
		apiTp.Here(ctx, "batch")
		hop := baggage.FromContext(ctx).Serialize()

		sctx := tracepoint.WithProc(context.Background(),
			tracepoint.ProcInfo{Host: "worker-1", ProcName: "storage"})
		sctx = baggage.NewContext(sctx, baggage.Deserialize(hop))
		readTp.Here(sctx, 1000)
	}
	ag.Flush()

	if !waitFor(func() bool { return len(h.Rows()) == 1 }, 3*time.Second) {
		t.Fatalf("no rows at the frontend; rows = %v", h.Rows())
	}
	row := h.Rows()[0]
	if row[0].Str() != "batch" || row[1].Int() != 10000 || row[2].Int() != 10 {
		t.Fatalf("row = %v, want (batch, 10000, 10)", row)
	}

	// Uninstall travels too.
	h.Uninstall()
	if !waitFor(func() bool { return !readTp.Enabled() }, 3*time.Second) {
		t.Fatal("uninstall did not unweave in the worker")
	}
}

func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestMergerKeepsNoBorrowedString: a decoded report's keys and Rep strings
// alias its frame, and a merger copies every string it keeps. A combiner
// tier's merger and a frontend's merge a ReportBatch frame; overwriting
// every byte of the frame afterwards changes none of their groups or rows.
func TestMergerKeepsNoBorrowedString(t *testing.T) {
	st := agg.New(agg.Count)
	st.Add(tuple.Null)
	report := func(q string, hosts ...string) agent.Report {
		r := agent.Report{QueryID: q, Host: "h", ProcName: "p", Time: time.Second,
			Raws: []tuple.Tuple{{tuple.String("raw-" + q)}}}
		for _, h := range hosts {
			r.Groups = append(r.Groups, &advice.Group{
				Key: "key-" + h, Rep: tuple.Tuple{tuple.String(h), tuple.Int(7), tuple.String("x-" + h)},
				States: []agg.State{*st},
			})
		}
		return r
	}
	frame, err := Marshal(agent.ReportBatch{Reports: []agent.Report{
		report("Q1", "host-a", "host-b", "host-c"), report("Q2", "host-b", "host-d"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMergers()
	for _, r := range msg.(agent.ReportBatch).Reports {
		for _, m := range ms {
			if _, err := m.Merge(r.Groups, r.Raws, r.Drops); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := snapshot(ms)
	if !strings.Contains(before, `"key-host-d" (host-d, 7, x-host-d)`) {
		t.Fatalf("the mergers hold\n%s\nwant every decoded group", before)
	}
	if scribble(frame); snapshot(ms) != before {
		t.Errorf("overwriting the frame changed what the mergers hold:\n%s\nwas\n%s", snapshot(ms), before)
	}
}

// reuseFrames returns two ReportBatch frames of one query, GroupBy rep
// Select rep, MIN, MAX, COUNT over strings, with raw rows and drop records:
// A, with three groups, and B, with one of A's keys and one new. Their
// strings differ, so a merger that kept anything of A's frame, or of the
// memory A was decoded into, would show it once B has been decoded.
func reuseFrames(t testing.TB) (a, b []byte) {
	frame := func(tag string, keys ...string) []byte {
		rep := agent.Report{QueryID: "Q-" + tag, Host: "host-" + tag, ProcName: "proc", Time: time.Second,
			Raws:  []tuple.Tuple{{tuple.String("raw-" + tag), tuple.Int(1)}},
			Drops: []baggage.DropRecord{{Slot: "slot", Key: "dropped-" + tag}},
		}
		for _, k := range keys {
			minimum, maximum, count := agg.New(agg.Min), agg.New(agg.Max), agg.New(agg.Count)
			minimum.Add(tuple.String("min-" + k + "-" + tag))
			maximum.Add(tuple.String("max-" + k + "-" + tag))
			count.Add(tuple.Null)
			rep.Groups = append(rep.Groups, &advice.Group{
				Key: "key-" + k, Rep: tuple.Tuple{tuple.String("rep-" + k + "-" + tag), tuple.String("x-" + tag)},
				States: []agg.State{*minimum, *maximum, *count},
			})
		}
		buf, err := Marshal(agent.ReportBatch{Reports: []agent.Report{rep}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	return frame("a", "k1", "k2", "k3"), frame("b", "k2", "k4")
}

// TestDecoderReuseLeavesMergedRowsIntact: a link reads every frame into
// one buffer and decodes it with one Decoder, which cuts each frame's rows
// from the memory of the last. A frontend's merger and a combiner tier's
// fold frame A, then frame B, decoded that way; they must hold exactly
// what they hold when each frame is decoded fresh by Unmarshal, and still
// after the buffer is overwritten.
func TestDecoderReuseLeavesMergedRowsIntact(t *testing.T) {
	a, b := reuseFrames(t)
	op := &advice.EmitOp{
		Cols: []advice.EmitCol{{Pos: 0}, {IsAgg: true, Fn: agg.Min, Pos: 0}, {IsAgg: true, Fn: agg.Max, Pos: 0},
			{IsAgg: true, Fn: agg.Count, Pos: -1}},
		GroupBy: []int{0}, Schema: tuple.Schema{"rep", "MIN", "MAX", "COUNT"},
	}
	mergers := func() []*advice.Merger {
		return []*advice.Merger{advice.NewMerger(op, advice.Unbounded), advice.NewMerger(nil, advice.Unbounded)}
	}
	var headers []string // a combiner keys its pending table by query id
	merge := func(ms []*advice.Merger, decode func([]byte) (any, error), frame []byte) {
		t.Helper()
		msg, err := decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range msg.(agent.ReportBatch).Reports {
			headers = append(headers, r.QueryID, r.Host, r.ProcName)
			for _, m := range ms {
				if _, err := m.Merge(r.Groups, r.Raws, r.Drops); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	state := func(ms []*advice.Merger) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintln(&b, m.Drops())
		}
		return snapshot(ms) + b.String()
	}
	fresh, reused := mergers(), mergers()
	var d Decoder
	buf := make([]byte, 0, max(len(a), len(b)))
	for _, frame := range [][]byte{a, b} {
		merge(fresh, Unmarshal, bytes.Clone(frame))
		buf = append(buf[:0], frame...)
		merge(reused, d.Decode, buf)
	}
	want := state(fresh)
	for _, s := range []string{"rep-k1-a", "rep-k4-b", "max-k2-b", "raw-a", "dropped-b"} {
		if !strings.Contains(want, s) {
			t.Fatalf("the mergers hold\n%s\nwant every decoded row, raw and drop", want)
		}
	}
	if got := state(reused); got != want {
		t.Errorf("after a reusing decoder moved on to frame B, the mergers hold\n%s\nwant\n%s", got, want)
	}
	if scribble(buf); state(reused) != want {
		t.Errorf("overwriting the reused buffer changed what the mergers hold:\n%s\nwant\n%s", state(reused), want)
	}
	if want := strings.Repeat("Q-a host-a proc ", 2) + strings.Repeat("Q-b host-b proc ", 2); strings.Join(headers, " ")+" " != want {
		t.Errorf("report headers read %q after the buffer was overwritten, want %q", headers, want)
	}
}

// TestDecoderReuseMatchesFreshDecode: a link's Decoder decodes each
// report state in place, into slab memory an earlier frame's states took.
// A sequence of frames that turns inexact states exact, MIN/MAX strings
// into ints and seen states into unseen ones, and changes how many states
// a group has, must decode through one reused Decoder to exactly what a
// fresh Decoder decodes from each frame: no weighted sum, extremum or flag
// of an earlier frame may survive, whether or not the slab clears what it
// takes back.
func TestDecoderReuseMatchesFreshDecode(t *testing.T) {
	type state struct {
		fn     agg.Func
		v      tuple.Value
		weight float64 // 0 leaves the state unseen
	}
	frame := func(groups int, states ...state) []byte {
		rep := agent.Report{QueryID: "Q", Host: "h", ProcName: "p", Time: time.Second}
		for i := range groups {
			g := &advice.Group{Key: fmt.Sprintf("key-%d", i), Rep: tuple.Tuple{tuple.Int(int64(i))}}
			for _, st := range states {
				s := agg.Make(st.fn)
				if st.weight != 0 {
					s.AddWeighted(st.v, st.weight)
				}
				g.States = append(g.States, s)
			}
			rep.Groups = append(rep.Groups, g)
		}
		buf, err := Marshal(agent.ReportBatch{Reports: []agent.Report{rep}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	frames := [][]byte{
		frame(4, state{agg.Count, tuple.Null, 4}, state{agg.Sum, tuple.Float(2.5), 4}, state{agg.Min, tuple.String("a"), 1}, state{agg.Max, tuple.String("z"), 4}),
		frame(6, state{agg.Count, tuple.Null, 1}, state{agg.Sum, tuple.Int(3), 1}, state{agg.Min, tuple.Int(7), 1}, state{agg.Max, tuple.Int(9), 1}),
		frame(5, state{agg.Average, tuple.Int(5), 1}, state{agg.Min, tuple.Null, 0}),
		frame(3, state{agg.Max, tuple.String("m"), 2}, state{agg.Average, tuple.Float(1.5), 0}, state{agg.Sum, tuple.Int(1), 3}),
		frame(8, state{agg.Sum, tuple.Int(2), 1}),
		frame(2, state{agg.Max, tuple.Null, 0}, state{agg.Min, tuple.Null, 0}, state{agg.Count, tuple.Null, 0}, state{agg.Sum, tuple.Null, 0}, state{agg.Average, tuple.Null, 0}),
	}
	var reused Decoder
	for i, f := range frames {
		got, err := reused.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := new(Decoder).Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d: a reused Decoder decoded\n%+v\nwant\n%+v", i, got, want)
		}
	}
}

// TestReadReportSlabs: the report decoder cuts groups, states and values
// out of shared slabs sized from the first group. A frame whose later
// groups are wider than the first decodes to what was encoded, no decoded
// slice has spare capacity that reaches into its neighbour, and a frame
// that claims more groups, states or raw rows than its bytes could hold is
// refused before anything is sized from the claim.
func TestReadReportSlabs(t *testing.T) {
	seeds := messageSeeds(t)
	msg, err := Unmarshal(seeds["ragged-growing-report"])
	if err != nil {
		t.Fatal(err)
	}
	rep := msg.(agent.ReportBatch).Reports[0]
	var shape []int
	for _, g := range rep.Groups {
		shape = append(shape, len(g.Rep), len(g.States))
		if cap(g.Rep) != len(g.Rep) || cap(g.States) != len(g.States) {
			t.Errorf("group %q: Rep %d/%d, States %d/%d (len/cap): appending would write a neighbour's row",
				g.Key, len(g.Rep), cap(g.Rep), len(g.States), cap(g.States))
		}
	}
	if want := []int{1, 1, 3, 3, 0, 0, 1, 2}; !slices.Equal(shape, want) {
		t.Errorf("decoded (Rep, States) widths %v, want %v", shape, want)
	}
	if got := rep.Groups[1].States[1].Result(); got.Float() != 50 {
		t.Errorf("group b's weighted state reads %v, want 50", got)
	}
	if len(rep.Raws) != 3 || len(rep.Raws[1]) != 3 || rep.Raws[1][2].Int() != 3 || len(rep.Raws[2]) != 0 {
		t.Errorf("raw rows decoded as %v", rep.Raws)
	}
	if enc, err := Marshal(msg); err != nil || !bytes.Equal(enc, seeds["ragged-growing-report"]) {
		t.Errorf("re-encoding the decoded report: err=%v, bytes differ=%v", err, !bytes.Equal(enc, seeds["ragged-growing-report"]))
	}
	for _, name := range []string{"huge-groups", "groups-past-frame", "states-past-frame", "raws-past-frame"} {
		if _, err := Unmarshal(seeds[name]); !errors.Is(err, tuple.ErrTruncated) {
			t.Errorf("%s: Unmarshal error %v, want %v", name, err, tuple.ErrTruncated)
		}
	}
}
