package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/querygen"
	"repro/internal/simtime"
	"repro/internal/tuple"
)

// TestScriptExecDrivesDemoCase runs the fixed demo case through
// ScriptExec on a simulated cluster with span capture enabled: every
// scripted event must be stamped by the executor, and each Run must
// reconstruct as its own trace.
func TestScriptExecDrivesDemoCase(t *testing.T) {
	c := querygen.DemoCase()
	var (
		runErrs []error
		traces  int
		spans   int64
	)
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := DefaultConfig()
		cfg.ReportInterval = 5 * time.Millisecond
		cfg.Spans = true
		cl := New(env, cfg)
		x := NewScriptExec(cl, c)
		for i := 0; i < 2; i++ {
			if err := x.Run(); err != nil {
				runErrs = append(runErrs, err)
				return
			}
			env.Sleep(time.Millisecond)
		}
		env.Sleep(3 * cfg.ReportInterval)
		cl.FlushAgents()
		traces = len(cl.PT.Traces().TraceIDs())
		for _, p := range x.Procs {
			spans += p.Agent.Stats().SpansCaptured
		}
	})
	for _, err := range runErrs {
		t.Fatal(err)
	}
	for i := range c.Events {
		if !c.Events[i].Stamped {
			t.Fatalf("event %d was never stamped by the executor", i)
		}
		if c.Events[i].Host == "" || c.Events[i].ProcName == "" {
			t.Fatalf("event %d stamped without process identity: %+v", i, c.Events[i])
		}
	}
	if traces != 2 {
		t.Fatalf("want 2 traces (one per Run), got %d", traces)
	}
	// 4 crossings per request × 2 requests, split across the 3 agents.
	if spans != 8 {
		t.Fatalf("want 8 captured spans, got %d", spans)
	}
}

// miniCase builds a two-process case with one tracepoint, one event per
// process, and the given op script — small enough for table-driven
// error-path tests.
func miniCase(ops []querygen.Op) *querygen.Case {
	return &querygen.Case{
		TPs:       []querygen.TP{{Name: "MiniTP", Fields: []querygen.Field{{Name: "v", Kind: tuple.KindInt}}}},
		NumProcs:  2,
		Hosts:     []string{"h0", "h1"},
		ProcNames: []string{"P0", "P1"},
		Events: []querygen.Event{
			{ID: 0, TP: 0, Proc: 0, Args: []tuple.Value{tuple.Int(1)}},
			{ID: 1, TP: 0, Proc: 1, Args: []tuple.Value{tuple.Int(2)}},
		},
		Ops: ops,
	}
}

// TestScriptExecErrorPaths exercises the executor's script/substrate
// consistency checks: a fire whose branch sits in the wrong process must
// record exactly one (the first) descriptive error, while consistent
// scripts — including ones routed through splits and transfers — run
// clean.
func TestScriptExecErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		ops     []querygen.Op
		wantErr string
	}{
		{
			name: "fire in untransferred branch",
			ops: []querygen.Op{
				{Kind: querygen.OpFire, Branch: 0, Event: 1},
			},
			wantErr: "branch 0 is in proc 0 but event 1 was generated for proc 1",
		},
		{
			name: "first error latches",
			ops: []querygen.Op{
				{Kind: querygen.OpFire, Branch: 0, Event: 1}, // wrong proc
				{Kind: querygen.OpTransfer, Branch: 0, Proc: 1},
				{Kind: querygen.OpFire, Branch: 0, Event: 0}, // also wrong: now in proc 1
			},
			wantErr: "event 1 was generated for proc 1",
		},
		{
			name: "split child stays in parent proc",
			ops: []querygen.Op{
				{Kind: querygen.OpSplit, Branch: 0},
				{Kind: querygen.OpTransfer, Branch: 0, Proc: 1}, // parent moves, child does not
				{Kind: querygen.OpFire, Branch: 1, Event: 1},    // child is still in proc 0
			},
			wantErr: "branch 1 is in proc 0 but event 1 was generated for proc 1",
		},
		{
			name: "transfer then fire is consistent",
			ops: []querygen.Op{
				{Kind: querygen.OpFire, Branch: 0, Event: 0},
				{Kind: querygen.OpTransfer, Branch: 0, Proc: 1},
				{Kind: querygen.OpFire, Branch: 0, Event: 1},
			},
		},
		{
			name: "split transfer join round trip",
			ops: []querygen.Op{
				{Kind: querygen.OpSplit, Branch: 0},
				{Kind: querygen.OpTransfer, Branch: 1, Proc: 1},
				{Kind: querygen.OpFire, Branch: 1, Event: 1},
				{Kind: querygen.OpTransfer, Branch: 1, Proc: 0},
				{Kind: querygen.OpJoin, Branch: 0, Other: 1},
				{Kind: querygen.OpFire, Branch: 0, Event: 0},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := miniCase(tc.ops)
			var err error
			env := simtime.NewEnv()
			env.Run(func() {
				cl := New(env, DefaultConfig())
				err = NewScriptExec(cl, c).Run()
			})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
