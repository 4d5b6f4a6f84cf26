package pivot

// Acceptance tests for causal span capture: the fixed demo workload
// (querygen.DemoCase) has a known split/join shape, so the reconstructed
// DAG can be checked node by node, and its raw happened-before join query
// emits exactly one tuple per oracle row, so the EXPLAIN ANALYZE counters
// must reconcile exactly with the reference evaluator.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/oracle"
	"repro/internal/querygen"
	"repro/internal/simtime"
	"repro/internal/spans"
)

// runDemoTraced executes case c once on a simulated cluster with span
// capture enabled and hands the cluster to inspect before teardown.
func runDemoTraced(t *testing.T, c *querygen.Case, inspect func(cl *cluster.Cluster, builder *spans.Builder, h *Query)) {
	t.Helper()
	var runErr error
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := cluster.DefaultConfig()
		cfg.ReportInterval = 5 * time.Millisecond
		cfg.Spans = true
		cl := cluster.New(env, cfg)
		x := cluster.NewScriptExec(cl, c)
		h, err := cl.PT.Install(c.QueryText)
		if err != nil {
			runErr = fmt.Errorf("install %q: %w", c.QueryText, err)
			return
		}
		if err := x.Run(); err != nil {
			runErr = err
			return
		}
		env.Sleep(3 * cfg.ReportInterval)
		cl.FlushAgents()
		inspect(cl, cl.PT.Traces(), h)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
}

func TestDemoTraceDAGMatchesScript(t *testing.T) {
	runDemoTraced(t, querygen.DemoCase(), func(cl *cluster.Cluster, builder *spans.Builder, h *Query) {
		ids := builder.TraceIDs()
		if len(ids) != 1 {
			t.Fatalf("TraceIDs = %v, want exactly one trace", ids)
		}
		tr := builder.Trace(ids[0])
		if tr == nil {
			t.Fatal("Trace returned nil for a known id")
		}
		if tr.Synthetic || tr.Orphans != 0 {
			t.Fatalf("demo trace lost spans: synthetic=%v orphans=%d", tr.Synthetic, tr.Orphans)
		}
		if len(tr.Nodes) != 4 {
			t.Fatalf("got %d spans, want 4 (Request, 2×Read, Respond)", len(tr.Nodes))
		}

		root := tr.Root
		if root.Tracepoint != "Demo.Request" || root.Host != "h0" || root.ProcName != "api" {
			t.Fatalf("root = %s [%s@%s], want Demo.Request [api@h0]", root.Tracepoint, root.ProcName, root.Host)
		}
		if len(root.Children) != 2 {
			t.Fatalf("root fan-out = %d children, want 2", len(root.Children))
		}
		readHosts := map[string]*spans.Node{}
		for _, rd := range root.Children {
			if rd.Tracepoint != "Demo.Read" {
				t.Fatalf("root child = %s, want Demo.Read", rd.Tracepoint)
			}
			// Transitive reduction must leave exactly the true parent: the
			// frozen pre-split frontier also names Demo.Request, but only
			// one edge may survive.
			if len(rd.Parents) != 1 || rd.Parents[0] != root {
				t.Fatalf("Demo.Read@%s parents = %d, want exactly the root", rd.Host, len(rd.Parents))
			}
			readHosts[rd.Host] = rd
		}
		if readHosts["h1"] == nil || readHosts["h2"] == nil {
			t.Fatalf("reads on hosts %v, want h1 and h2", readHosts)
		}

		var respond *spans.Node
		for _, n := range tr.Nodes {
			if n.Tracepoint == "Demo.Respond" {
				respond = n
			}
		}
		if respond == nil {
			t.Fatal("no Demo.Respond span")
		}
		if respond.Host != "h0" || respond.ProcName != "api" {
			t.Fatalf("respond at %s@%s, want api@h0", respond.ProcName, respond.Host)
		}
		// The join must preserve BOTH incoming edges (and, by reduction,
		// nothing else: Demo.Request is an ancestor of both reads).
		if len(respond.Parents) != 2 {
			t.Fatalf("respond join has %d parents, want 2", len(respond.Parents))
		}
		seen := map[*spans.Node]bool{}
		for _, p := range respond.Parents {
			seen[p] = true
		}
		if !seen[readHosts["h1"]] || !seen[readHosts["h2"]] {
			t.Fatal("respond's parents are not the two reads")
		}

		// The slow read (h2, fired later) dominates: critical path is
		// Request → Read@h2 → Respond.
		cp := tr.CriticalPath()
		var gotPath []string
		for _, n := range cp {
			gotPath = append(gotPath, n.Tracepoint+"@"+n.Host)
		}
		wantPath := []string{"Demo.Request@h0", "Demo.Read@h2", "Demo.Respond@h0"}
		if strings.Join(gotPath, " ") != strings.Join(wantPath, " ") {
			t.Fatalf("critical path = %v, want %v", gotPath, wantPath)
		}

		// Tier attribution covers the critical path: api (the respond
		// segment) and dn2 (the slow read); dn1 is off-path.
		tl := tr.TierLatency()
		if tl["dn2"] <= 0 || tl["api"] <= 0 {
			t.Fatalf("tier latency = %v, want positive api and dn2 shares", tl)
		}
		if _, offPath := tl["dn1"]; offPath {
			t.Fatalf("tier latency charges off-path tier dn1: %v", tl)
		}

		out := tr.RenderTree()
		for _, want := range []string{"Demo.Request", "Demo.Read", "Demo.Respond", "4 spans", "(join"} {
			if !strings.Contains(out, want) {
				t.Fatalf("RenderTree missing %q:\n%s", want, out)
			}
		}
		if sum := builder.Summary(); !strings.Contains(sum, "TRACE") {
			t.Fatalf("Summary missing header:\n%s", sum)
		}
	})
}

func TestExplainAnalyzeReconcilesWithOracle(t *testing.T) {
	c := querygen.DemoCase()
	runDemoTraced(t, c, func(cl *cluster.Cluster, builder *spans.Builder, h *Query) {
		got := h.Rows()
		want, err := oracleRows(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oracle.Canonical(want), oracle.Canonical(got)) {
			t.Fatalf("pipeline rows diverge from oracle\noracle:\n%s\npipeline:\n%s",
				oracle.Format(want), oracle.Format(got))
		}

		// The demo query is a raw projection: one EMIT per joined tuple,
		// no grouping, so the operator counter must equal the oracle row
		// count exactly — not approximately.
		var emitted int64
		for _, prog := range h.Plan.Programs {
			emitted += prog.Cost.TuplesEmitted.Load()
		}
		if emitted != int64(len(want)) {
			t.Fatalf("EMIT counted %d tuples, oracle has %d rows", emitted, len(want))
		}

		out := h.ExplainAnalyze()
		for _, wantStr := range []string{
			"EXPLAIN ANALYZE",
			fmt.Sprintf("emitted=%d", len(want)),
			fmt.Sprintf("rows=%d", len(want)),
			"MERGE at frontend",
			"per-process agent breakdown:",
			"h0/api",
		} {
			if !strings.Contains(out, wantStr) {
				t.Fatalf("ExplainAnalyze missing %q:\n%s", wantStr, out)
			}
		}
	})
}

// TestSpanIDsOfTwoRuntimesNeverCollide: runtimes sharing one OS process
// share its PID, so their span-id streams must still be disjoint, or a
// builder that sees both merges unrelated requests into one trace.
func TestSpanIDsOfTwoRuntimesNeverCollide(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range []string{"a", "b"} {
		pt := New(name)
		tp := pt.Define("Span.Root")
		builder := pt.EnableSpans(16)
		for i := 0; i < 4; i++ {
			tp.Here(pt.NewRequest(pt.Context(context.Background())))
		}
		pt.Flush()
		ids := builder.TraceIDs()
		if len(ids) != 4 {
			t.Fatalf("runtime %s: %d traces, want 4", name, len(ids))
		}
		for _, id := range ids {
			if other, ok := seen[id]; ok {
				t.Fatalf("trace id %#x minted by runtimes %s and %s", id, other, name)
			}
			seen[id] = name
		}
	}
}
