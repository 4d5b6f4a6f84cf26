package query

import (
	"strings"
	"testing"

	"repro/internal/tracepoint"
)

// testRegistry defines the tracepoints used by the paper queries.
func testRegistry() *tracepoint.Registry {
	reg := tracepoint.NewRegistry()
	reg.Define("DataNodeMetrics.incrBytesRead", "delta")
	reg.Define("ClientProtocols") // procName is a default export
	reg.Define("DN.DataTransferProtocol", "op", "size")
	reg.Define("NN.GetBlockLocations", "src", "replicas")
	reg.Define("StressTest.DoNextOp", "op")
	reg.Define("SendResponse")
	reg.Define("ReceiveRequest")
	reg.Define("JobComplete", "id")
	return reg
}

func mustParse(t *testing.T, text string) *Query {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAnalyzePaperQueries(t *testing.T) {
	reg := testRegistry()
	named := map[string]*Query{}
	for _, name := range []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9"} {
		q := mustParse(t, paperQueries[name])
		q.Name = name
		if _, err := Analyze(q, reg, named); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		named[name] = q // Q9 references Q8
	}
}

func TestAnalyzeResolvesSubquery(t *testing.T) {
	reg := testRegistry()
	q8 := mustParse(t, paperQueries["Q8"])
	q8.Name = "Q8"
	named := map[string]*Query{"Q8": q8}
	q9 := mustParse(t, paperQueries["Q9"])
	a, err := Analyze(q9, reg, named)
	if err != nil {
		t.Fatal(err)
	}
	if q9.Joins[0].Source.Subquery != "Q8" || q9.Joins[0].Source.Tracepoint != "" {
		t.Errorf("source not resolved to subquery: %+v", q9.Joins[0].Source)
	}
	if a.Subqueries["latencyMeasurement"] != q8 {
		t.Error("analysis should record the subquery binding")
	}
	// Q9's "-> end" resolves to the From alias.
	if q9.Joins[0].Right != "job" {
		t.Errorf("end resolved to %q, want job", q9.Joins[0].Right)
	}
}

func TestAnalyzeUnknownTracepoint(t *testing.T) {
	q := mustParse(t, `From e In NoSuch.Tracepoint Select e.host`)
	_, err := Analyze(q, testRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown tracepoint") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeUnknownField(t *testing.T) {
	q := mustParse(t, `From e In ClientProtocols Select e.bogus`)
	_, err := Analyze(q, testRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "does not export") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeDefaultExportsResolve(t *testing.T) {
	q := mustParse(t, `From e In ClientProtocols GroupBy e.host Select e.host, COUNT`)
	if _, err := Analyze(q, testRegistry(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeUnknownAliasInJoin(t *testing.T) {
	q := mustParse(t, `From e In ClientProtocols Join d In SendResponse On d -> zzz Select COUNT`)
	_, err := Analyze(q, testRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown alias") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeWrongJoinDirection(t *testing.T) {
	// "On e -> d" says the new alias d happens after e, which baggage
	// cannot evaluate — the analyzer explains how to fix it.
	q := mustParse(t, `From e In ClientProtocols Join d In SendResponse On e -> d Select COUNT`)
	_, err := Analyze(q, testRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "causally precede") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeDuplicateAlias(t *testing.T) {
	q := mustParse(t, `From e In ClientProtocols Join e In SendResponse On e -> e Select COUNT`)
	if _, err := Analyze(q, testRegistry(), nil); err == nil {
		t.Fatal("duplicate alias should fail")
	}
}

func TestAnalyzeNonGroupedOutput(t *testing.T) {
	q := mustParse(t, `From e In DN.DataTransferProtocol GroupBy e.host Select e.op, COUNT`)
	_, err := Analyze(q, testRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "GroupBy field") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeUnionSchemaMismatch(t *testing.T) {
	q := mustParse(t, `From e In ClientProtocols, DN.DataTransferProtocol Select COUNT`)
	_, err := Analyze(q, testRegistry(), nil)
	if err == nil || !strings.Contains(err.Error(), "different variables") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeUnionOK(t *testing.T) {
	reg := testRegistry()
	reg.Define("DataRPCs", "size")
	reg.Define("ControlRPCs", "size")
	q := mustParse(t, `From e In DataRPCs, ControlRPCs Where e.size < 10 GroupBy e.host Select e.host, COUNT`)
	if _, err := Analyze(q, reg, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeTemporalFilterOnFromRejected(t *testing.T) {
	q := mustParse(t, `From e In First(ClientProtocols) Select COUNT`)
	if _, err := Analyze(q, testRegistry(), nil); err == nil {
		t.Fatal("temporal filter on From source should fail")
	}
}

func TestAnalyzeQueryAsFromSourceRejected(t *testing.T) {
	q8 := mustParse(t, paperQueries["Q8"])
	named := map[string]*Query{"Q8": q8}
	q := mustParse(t, `From e In Q8 Select COUNT`)
	if _, err := Analyze(q, testRegistry(), named); err == nil {
		t.Fatal("query as From source should fail")
	}
}

func TestAnalyzeBareAliasNeedsSingleColumnSubquery(t *testing.T) {
	reg := testRegistry()
	q8 := mustParse(t, paperQueries["Q8"])
	q8.Name = "Q8"
	named := map[string]*Query{"Q8": q8}

	// OK: Q8 has one output column.
	ok := mustParse(t, `From job In JobComplete Join m In Q8 On m -> end GroupBy job.id Select job.id, AVERAGE(m)`)
	if _, err := Analyze(ok, reg, named); err != nil {
		t.Fatal(err)
	}
	// Bad: bare reference to a tracepoint alias.
	bad := mustParse(t, `From job In JobComplete Select AVERAGE(job)`)
	if _, err := Analyze(bad, reg, named); err == nil {
		t.Fatal("bare tracepoint alias should fail")
	}
}

func TestOutputSchemaNames(t *testing.T) {
	q := mustParse(t, `From e In DN.DataTransferProtocol GroupBy e.host Select e.host, COUNT, SUM(e.size)`)
	got := OutputSchema(q)
	want := []string{"host", "COUNT", "SUM(size)"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutputSchema = %v, want %v", got, want)
		}
	}
	q8 := mustParse(t, paperQueries["Q8"])
	if s := OutputSchema(q8); len(s) != 1 || s[0] != "_1" {
		t.Fatalf("Q8 OutputSchema = %v", s)
	}
}

func TestResolveRef(t *testing.T) {
	reg := testRegistry()
	q := mustParse(t, paperQueries["Q2"])
	a, err := Analyze(q, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// procName is a default export, at position 2.
	if pos := a.Schemas["cl"].Index("procName"); pos != 2 {
		t.Errorf("procName pos = %d, want 2", pos)
	}
	if pos := a.Schemas["incr"].Index("host"); pos != 0 {
		t.Errorf("host pos = %d, want 0", pos)
	}
}
