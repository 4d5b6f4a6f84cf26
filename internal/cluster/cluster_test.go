package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/baggage"
	"repro/internal/simtime"
	"repro/internal/tuple"
)

func testCluster(env *simtime.Env) *Cluster { return tieredCluster(env, 0) }

func TestEndToEndQ2StyleQuery(t *testing.T) {
	env := simtime.NewEnv()
	var rows []tuple.Tuple
	env.Run(func() {
		c := testCluster(env)
		clientProc := c.Start("host-1", "HGET")
		dnProc := c.Start("host-2", "DataNode")

		clTp := clientProc.Define("ClientProtocols")
		incrTp := dnProc.Define("DataNodeMetrics.incrBytesRead", "delta")
		// The frontend's master registry needs both definitions; mirror
		// the client tracepoint into the DataNode process's vocabulary
		// too (it is simply never invoked there).
		dnProc.Define("ClientProtocols")
		clientProc.Define("DataNodeMetrics.incrBytesRead", "delta")

		dnProc.Handle("DataNode.read", func(ctx context.Context, req any) (any, error) {
			incrTp.Here(ctx, req.(int))
			return nil, nil
		})

		h, err := c.PT.Install(
			`From incr In DataNodeMetrics.incrBytesRead
			 Join cl In First(ClientProtocols) On cl -> incr
			 GroupBy cl.procName
			 Select cl.procName, SUM(incr.delta)`)
		if err != nil {
			t.Error(err)
			return
		}

		for i := 0; i < 5; i++ {
			ctx := clientProc.NewRequest()
			clTp.Here(ctx)
			if _, err := clientProc.Call(ctx, dnProc, "DataNode.read", 1000, Sizes{Request: 100, Response: 4096}); err != nil {
				t.Error(err)
				return
			}
		}
		env.Sleep(2 * time.Second) // let agents report
		c.FlushAgents()
		rows = h.Rows()
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Str() != "HGET" || rows[0][1].Int() != 5000 {
		t.Fatalf("row = %v, want (HGET, 5000)", rows[0])
	}
}

func TestRPCPropagatesBaggageBothWays(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := testCluster(env)
		a := c.Start("h1", "client")
		b := c.Start("h2", "server")
		spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"v"}}

		b.Handle("S.m", func(ctx context.Context, req any) (any, error) {
			bag := baggage.FromContext(ctx)
			// The callee sees tuples packed by the caller...
			if got := bag.Unpack("fromCaller"); len(got) != 1 {
				t.Errorf("callee sees %v, want 1 tuple", got)
			}
			// ...and can pack tuples the caller will see on return.
			bag.Pack("fromCallee", spec, tuple.Tuple{tuple.Int(7)})
			return "ok", nil
		})

		ctx := a.NewRequest()
		baggage.FromContext(ctx).Pack("fromCaller", spec, tuple.Tuple{tuple.Int(1)})
		resp, err := a.Call(ctx, b, "S.m", nil, Sizes{Request: 10, Response: 10})
		if err != nil || resp != "ok" {
			t.Errorf("resp = %v, %v", resp, err)
		}
		got := baggage.FromContext(ctx).Unpack("fromCallee")
		if len(got) != 1 || got[0][0].Int() != 7 {
			t.Errorf("caller sees %v after return, want [(7)]", got)
		}
	})
}

func TestRPCToMissingHandlerErrors(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := testCluster(env)
		a := c.Start("h1", "client")
		b := c.Start("h2", "server")
		if _, err := a.Call(a.NewRequest(), b, "No.method", nil, Sizes{}); err == nil {
			t.Error("expected error for missing handler")
		}
	})
}

func TestRPCTransfersConsumeBandwidth(t *testing.T) {
	env := simtime.NewEnv()
	var elapsed time.Duration
	env.Run(func() {
		cfg := DefaultConfig()
		cfg.NICRate = 1000 // 1000 B/s
		cfg.RPCLatency = 0
		c := New(env, cfg)
		a := c.Start("h1", "client")
		b := c.Start("h2", "server")
		b.Handle("S.m", func(ctx context.Context, req any) (any, error) { return nil, nil })
		start := env.Now()
		a.Call(a.NewRequest(), b, "S.m", nil, Sizes{Request: 1000, Response: 2000})
		elapsed = env.Now() - start
	})
	// 1000 B at 1000 B/s + 2000 B at 1000 B/s = 3s.
	if elapsed < 2900*time.Millisecond || elapsed > 3100*time.Millisecond {
		t.Fatalf("RPC took %v, want ~3s", elapsed)
	}
}

func TestProcessGoSplitsAndJoinsBaggage(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := testCluster(env)
		p := c.Start("h1", "worker")
		spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"v"}}

		ctx := p.NewRequest()
		baggage.FromContext(ctx).Pack("s", spec, tuple.Tuple{tuple.Int(1)})

		join := p.Go(ctx, func(branchCtx context.Context) {
			env.Sleep(time.Millisecond)
			bag := baggage.FromContext(branchCtx)
			// Branch sees pre-branch tuples.
			if got := bag.Unpack("s"); len(got) != 1 {
				t.Errorf("branch sees %v", got)
			}
			bag.Pack("s", spec, tuple.Tuple{tuple.Int(2)})
		})
		baggage.FromContext(ctx).Pack("s", spec, tuple.Tuple{tuple.Int(3)})
		join()

		got := baggage.FromContext(ctx).Unpack("s")
		if len(got) != 3 {
			t.Fatalf("after join: %v, want 3 tuples", got)
		}
	})
}

func TestUnmonitoredProcessStillPropagates(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := testCluster(env)
		a := c.Start("h1", "client")
		mid := c.StartUnmonitored("h2", "proxy")
		b := c.Start("h3", "server")
		spec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"v"}}

		b.Handle("S.m", func(ctx context.Context, req any) (any, error) {
			got := baggage.FromContext(ctx).Unpack("s")
			if len(got) != 1 {
				t.Errorf("server sees %v through proxy", got)
			}
			return nil, nil
		})
		mid.Handle("P.fwd", func(ctx context.Context, req any) (any, error) {
			return mid.Call(ctx, b, "S.m", req, Sizes{})
		})
		if mid.Agent != nil {
			t.Error("unmonitored process should have no agent")
		}

		ctx := a.NewRequest()
		baggage.FromContext(ctx).Pack("s", spec, tuple.Tuple{tuple.Int(1)})
		if _, err := a.Call(ctx, mid, "P.fwd", nil, Sizes{}); err != nil {
			t.Error(err)
		}
	})
}

func TestDuplicateProcessPanics(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		c := testCluster(env)
		c.Start("h1", "p")
		c.Start("h1", "p")
	})
}

func TestUninstallStopsCollection(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c := testCluster(env)
		p := c.Start("h1", "proc")
		tp := p.Define("Tp", "v")

		h, err := c.PT.Install(`From e In Tp GroupBy e.host Select e.host, COUNT`)
		if err != nil {
			t.Error(err)
			return
		}
		tp.Here(p.NewRequest(), 1)
		c.FlushAgents() // report the partial before uninstalling
		h.Uninstall()
		tp.Here(p.NewRequest(), 1) // after uninstall: not counted
		c.FlushAgents()
		rows := h.Rows()
		if len(rows) != 1 || rows[0][1].Int() != 1 {
			t.Errorf("rows = %v, want count 1", rows)
		}
		if tp.Enabled() {
			t.Error("tracepoint should be disabled after uninstall")
		}
	})
}
