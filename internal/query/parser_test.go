package query

import (
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/tuple"
)

// The nine queries from the paper (Q1-Q9), in surface syntax.
var paperQueries = map[string]string{
	"Q1": `From incr In DataNodeMetrics.incrBytesRead
	       GroupBy incr.host
	       Select incr.host, SUM(incr.delta)`,
	"Q2": `From incr In DataNodeMetrics.incrBytesRead
	       Join cl In First(ClientProtocols) On cl -> incr
	       GroupBy cl.procName
	       Select cl.procName, SUM(incr.delta)`,
	"Q3": `From dnop In DN.DataTransferProtocol
	       GroupBy dnop.host
	       Select dnop.host, COUNT`,
	"Q4": `From getloc In NN.GetBlockLocations
	       Join st In StressTest.DoNextOp On st -> getloc
	       GroupBy st.host, getloc.src
	       Select st.host, getloc.src, COUNT`,
	"Q5": `From getloc In NN.GetBlockLocations
	       Join st In StressTest.DoNextOp On st -> getloc
	       GroupBy st.host, getloc.replicas
	       Select st.host, getloc.replicas, COUNT`,
	"Q6": `From DNop In DN.DataTransferProtocol
	       Join st In StressTest.DoNextOp On st -> DNop
	       GroupBy st.host, DNop.host
	       Select st.host, DNop.host, COUNT`,
	"Q7": `From DNop In DN.DataTransferProtocol
	       Join getloc In NN.GetBlockLocations On getloc -> DNop
	       Join st In StressTest.DoNextOp On st -> getloc
	       Where st.host != DNop.host
	       GroupBy DNop.host, getloc.replicas
	       Select DNop.host, getloc.replicas, COUNT`,
	"Q8": `From response In SendResponse
	       Join request In MostRecent(ReceiveRequest) On request -> response
	       Select response.time - request.time`,
	"Q9": `From job In JobComplete
	       Join latencyMeasurement In Q8 On latencyMeasurement -> end
	       GroupBy job.id
	       Select job.id, AVERAGE(latencyMeasurement)`,
}

func TestParseAllPaperQueries(t *testing.T) {
	for name, text := range paperQueries {
		q, err := Parse(text)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if q.From.Alias == "" || len(q.Select) == 0 {
			t.Errorf("%s: incomplete parse: %+v", name, q)
		}
	}
}

func TestParseQ2Structure(t *testing.T) {
	q, err := Parse(paperQueries["Q2"])
	if err != nil {
		t.Fatal(err)
	}
	if q.From.Alias != "incr" || q.From.Sources[0].Tracepoint != "DataNodeMetrics.incrBytesRead" {
		t.Errorf("From = %+v", q.From)
	}
	if len(q.Joins) != 1 {
		t.Fatalf("Joins = %+v", q.Joins)
	}
	j := q.Joins[0]
	if j.Alias != "cl" || j.Source.Tracepoint != "ClientProtocols" ||
		j.Source.Filter != FilterFirst || j.Left != "cl" || j.Right != "incr" {
		t.Errorf("Join = %+v", j)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != (FieldRef{Alias: "cl", Field: "procName"}) {
		t.Errorf("GroupBy = %+v", q.GroupBy)
	}
	if len(q.Select) != 2 {
		t.Fatalf("Select = %+v", q.Select)
	}
	if q.Select[0].HasAgg || q.Select[0].Expr.(FieldRef).Field != "procName" {
		t.Errorf("Select[0] = %+v", q.Select[0])
	}
	if !q.Select[1].HasAgg || q.Select[1].Agg != agg.Sum {
		t.Errorf("Select[1] = %+v", q.Select[1])
	}
}

func TestParseBareCount(t *testing.T) {
	q, err := Parse(paperQueries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	last := q.Select[len(q.Select)-1]
	if !last.HasAgg || last.Agg != agg.Count || last.Expr != nil {
		t.Errorf("bare COUNT = %+v", last)
	}
}

func TestParseUnionSources(t *testing.T) {
	q, err := Parse(`From e In DataRPCs, ControlRPCs Select e.host`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.From.Sources) != 2 ||
		q.From.Sources[0].Tracepoint != "DataRPCs" ||
		q.From.Sources[1].Tracepoint != "ControlRPCs" {
		t.Errorf("Sources = %+v", q.From.Sources)
	}
}

func TestParseWhereExpression(t *testing.T) {
	q, err := Parse(`From e In RPCs Where e.Size < 10 && e.User != "root" Select e.host`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 {
		t.Fatalf("Where = %+v", q.Where)
	}
	b, ok := q.Where[0].(Binary)
	if !ok || b.Op != OpAnd {
		t.Fatalf("Where = %v", q.Where[0])
	}
}

func TestParseFirstNMostRecentN(t *testing.T) {
	q, err := Parse(`From e In Tp Join d In FirstN(3, Disk) On d -> e Select e.host`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Joins[0].Source.Filter != FilterFirstN || q.Joins[0].Source.N != 3 {
		t.Errorf("FirstN source = %+v", q.Joins[0].Source)
	}
	q, err = Parse(`From e In Tp Join d In MostRecentN(7, Disk) On d -> e Select e.host`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Joins[0].Source.Filter != FilterMostRecentN || q.Joins[0].Source.N != 7 {
		t.Errorf("MostRecentN source = %+v", q.Joins[0].Source)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	q, err := Parse(`From e In Tp Select e.a + e.b * e.c`)
	if err != nil {
		t.Fatal(err)
	}
	b := q.Select[0].Expr.(Binary)
	if b.Op != OpAdd {
		t.Fatalf("top op = %v, want +", b.Op)
	}
	if inner, ok := b.R.(Binary); !ok || inner.Op != OpMul {
		t.Fatalf("right = %v, want (b * c)", b.R)
	}
}

func TestParseUnicodeMinus(t *testing.T) {
	q, err := Parse("From response In SendResponse Select response.time − 5")
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := q.Select[0].Expr.(Binary); !ok || b.Op != OpSub {
		t.Fatalf("expr = %v", q.Select[0].Expr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`Select e.host`,
		`From`,
		`From e`,
		`From e In`,
		`From e In Tp`,
		`From e In Tp Select`,
		`From e In Tp Join`,
		`From e In Tp Join d In Disk On d e Select e.host`,
		`From e In Tp Join d In Disk On d -> Select e.host`,
		`From e In Tp GroupBy Select COUNT`,
		`From e In Tp Select SUM`,
		`From e In Tp Select SUM(`,
		`From e In Tp Where e.x < Select e.host`,
		`From e In Tp Select "unterminated`,
		`From e In Tp Select e.x @ 3`,
		`From e In First(Tp) Select e.host GroupBy e.host GroupBy e.host`,
		`From e In FirstN(0, Tp) Select e.host`,
		`From e In Tp Select e.host Select e.host`,
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestParseErrorHasLineColumn(t *testing.T) {
	_, err := Parse("From e In Tp\nWhere e.x <\nSelect e.host")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line ") {
		t.Errorf("error %q should mention the line", err)
	}
}

func TestPrintParseRoundtrip(t *testing.T) {
	for name, text := range paperQueries {
		q1, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%s: reparse of %q: %v", name, printed, err)
		}
		if q2.String() != printed {
			t.Errorf("%s: print/parse not a fixpoint:\n  %s\n  %s", name, printed, q2.String())
		}
	}
}

func TestExprEval(t *testing.T) {
	vals := map[FieldRef]tuple.Value{
		{Alias: "e", Field: "a"}: tuple.Int(10),
		{Alias: "e", Field: "b"}: tuple.Int(3),
		{Alias: "e", Field: "s"}: tuple.String("x"),
	}
	resolve := func(f FieldRef) tuple.Value { return vals[f] }
	cases := []struct {
		text string
		want tuple.Value
	}{
		{`e.a + e.b`, tuple.Int(13)},
		{`e.a - e.b`, tuple.Int(7)},
		{`e.a * e.b`, tuple.Int(30)},
		{`e.a / 2`, tuple.Int(5)},
		{`e.a / 4`, tuple.Float(2.5)},
		{`e.a / 0`, tuple.Null},
		{`e.a > e.b`, tuple.Bool(true)},
		{`e.a <= 9`, tuple.Bool(false)},
		{`e.s = "x"`, tuple.Bool(true)},
		{`e.s != "x"`, tuple.Bool(false)},
		{`e.a > 5 && e.b < 2`, tuple.Bool(false)},
		{`e.a > 5 || e.b < 2`, tuple.Bool(true)},
		{`!(e.a > 5)`, tuple.Bool(false)},
		{`-e.b`, tuple.Int(-3)},
		{`(e.a + e.b) * 2`, tuple.Int(26)},
		{`2.5 + e.b`, tuple.Float(5.5)},
		{`true`, tuple.Bool(true)},
		{`false || e.a = 10`, tuple.Bool(true)},
	}
	for _, c := range cases {
		q, err := Parse("From e In Tp Select " + c.text)
		if err != nil {
			t.Errorf("%s: %v", c.text, err)
			continue
		}
		got := q.Select[0].Expr.Eval(resolve)
		if !got.Equal(c.want) && !(got.Kind() == tuple.KindNull && c.want.Kind() == tuple.KindNull) {
			t.Errorf("%s = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestFieldRefsCollection(t *testing.T) {
	q, _ := Parse(`From e In Tp Where e.a + e.b > e.a Select COUNT`)
	refs := FieldRefs(q.Where[0])
	if len(refs) != 2 {
		t.Fatalf("FieldRefs = %v, want 2 distinct", refs)
	}
}
