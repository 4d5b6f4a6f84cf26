package main

import (
	"strings"
	"testing"
)

// TestVocabularyDefinesHadoopTracepoints spot-checks the simulated
// stack's tracepoint vocabulary that queries resolve against, across
// HDFS, HBase, YARN, MapReduce and the StressTest client.
func TestVocabularyDefinesHadoopTracepoints(t *testing.T) {
	reg := vocabulary()
	for _, name := range []string{
		"NN.GetBlockLocations", "DN.DataTransferProtocol", "StressTest.DoNextOp",
		"AM.MapTaskComplete", "AM.ReduceTaskComplete", "MapOutputServlet",
		"Master.Assign", "NM.LaunchContainer", "RM.AllocateContainer",
	} {
		if reg.Lookup(name) == nil {
			t.Errorf("vocabulary missing %s", name)
		}
	}
}

// TestRunExplainAnalyzeDefaultQuery runs the demo workload through the
// demo case's own happened-before join and checks the measured plan has
// the operator annotations, the frontend merge line, and the per-process
// breakdown.
func TestRunExplainAnalyzeDefaultQuery(t *testing.T) {
	out, err := runExplainAnalyze("", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE", "MERGE at frontend", "per-process agent breakdown:", "emitted=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain-analyze output missing %q\n%s", want, out)
		}
	}
}

// TestRunExplainAnalyzeRejectsBadQuery: a query over an undefined
// tracepoint fails at install, surfaced as an error.
func TestRunExplainAnalyzeRejectsBadQuery(t *testing.T) {
	if _, err := runExplainAnalyze("From x In Nowhere.Defined Select x.host", 1); err == nil {
		t.Fatal("want install error for unknown tracepoint")
	}
}
