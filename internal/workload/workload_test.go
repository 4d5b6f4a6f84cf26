package workload

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
)

func smallTestbed(env *simtime.Env, hosts int) *Testbed {
	cfg := DefaultTestbedConfig()
	cfg.Hosts = hosts
	return NewTestbed(env, cfg)
}

func TestTestbedAssembles(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		tb := smallTestbed(env, 4)
		if len(tb.DNs) != 4 || len(tb.RSs) != 4 || len(tb.NMs) != 4 {
			t.Errorf("testbed sizes: DNs=%d RSs=%d NMs=%d", len(tb.DNs), len(tb.RSs), len(tb.NMs))
		}
		if tb.C.Proc("host-A", "DataNode") == nil {
			t.Error("DataNode process missing on host-A")
		}
		if tb.C.Proc("master", "NameNode") == nil {
			t.Error("NameNode missing on master")
		}
	})
}

func TestFSReadWorkloadProducesThroughput(t *testing.T) {
	env := simtime.NewEnv()
	var ops int
	env.Run(func() {
		tb := smallTestbed(env, 4)
		w, err := tb.NewFSRead("host-A", "FSREAD4M", 4e6, 8, 42)
		if err != nil {
			t.Error(err)
			return
		}
		w.Start()
		env.Sleep(3 * time.Second)
		ops = w.Rec.Count()
	})
	if ops < 10 {
		t.Fatalf("FSread4m completed %d ops in 3s, want >= 10", ops)
	}
}

func TestHBaseWorkloads(t *testing.T) {
	env := simtime.NewEnv()
	var gets, scans int
	env.Run(func() {
		tb := smallTestbed(env, 4)
		if err := tb.InitHBaseStores(1e9); err != nil {
			t.Error(err)
			return
		}
		g := tb.NewHGet("host-B", 1)
		s := tb.NewHScan("host-C", 2)
		g.Start()
		s.Start()
		env.Sleep(2 * time.Second)
		gets, scans = g.Rec.Count(), s.Rec.Count()
	})
	if gets < 20 {
		t.Errorf("Hget ops = %d, want >= 20", gets)
	}
	if scans < 5 {
		t.Errorf("Hscan ops = %d, want >= 5", scans)
	}
}

func TestMRSortCompletesJobs(t *testing.T) {
	env := simtime.NewEnv()
	var jobs int
	env.Run(func() {
		tb := smallTestbed(env, 4)
		// A small sort: 512 MB input = 4 map tasks.
		w, err := tb.NewMRSort("host-D", "MRSORT", 512e6)
		if err != nil {
			t.Error(err)
			return
		}
		w.Start()
		env.Sleep(60 * time.Second)
		jobs = w.Rec.Count()
	})
	if jobs < 1 {
		t.Fatalf("MRsort completed %d jobs in 60s, want >= 1", jobs)
	}
}

func TestFig1bCrossTierAttribution(t *testing.T) {
	// The headline experiment shape: per-application HDFS throughput via
	// the happened-before join, attributing DataNode-level reads to the
	// high-level client application that caused them.
	env := simtime.NewEnv()
	totals := map[string]float64{}
	env.Run(func() {
		tb := smallTestbed(env, 4)
		if err := tb.InitHBaseStores(1e9); err != nil {
			t.Error(err)
			return
		}
		h, err := tb.C.PT.Install(
			`From incr In DataNodeMetrics.incrBytesRead
			 Join cl In First(ClientProtocols) On cl -> incr
			 GroupBy cl.procName
			 Select cl.procName, SUM(incr.delta)`)
		if err != nil {
			t.Error(err)
			return
		}
		col := metrics.NewCollector(h.Plan.Emit.Emit, time.Second)
		h.OnReport(col.OnReport)

		w1, err := tb.NewFSRead("host-A", "FSREAD4M", 4e6, 8, 1)
		if err != nil {
			t.Error(err)
			return
		}
		w2, err := tb.NewFSRead("host-B", "FSREAD64M", 64e6, 8, 2)
		if err != nil {
			t.Error(err)
			return
		}
		g := tb.NewHGet("host-C", 3)
		w1.Start()
		w2.Start()
		g.Start()
		env.Sleep(5 * time.Second)
		tb.C.FlushAgents()
		for k, pts := range col.Series([]int{0}, 1, false) {
			for _, p := range pts {
				totals[k] += p.V
			}
		}
	})
	for _, app := range []string{"FSREAD4M", "FSREAD64M", "HGET"} {
		if totals[app] <= 0 {
			t.Errorf("no bytes attributed to %s: %v", app, totals)
		}
	}
	// Bulk readers move far more data than the 10 kB getter (Fig 1b shape).
	if totals["FSREAD4M"] < totals["HGET"] || totals["FSREAD64M"] < totals["HGET"] {
		t.Errorf("attribution shape wrong: %v", totals)
	}
}

func TestStressTestWorkload(t *testing.T) {
	env := simtime.NewEnv()
	var ops int
	env.Run(func() {
		tb := smallTestbed(env, 4)
		files, err := tb.StressDataset(50, 128e6)
		if err != nil {
			t.Error(err)
			return
		}
		w := tb.NewStressTest("host-A", 0, files, time.Millisecond, 7)
		w.Start()
		env.Sleep(2 * time.Second)
		ops = w.Rec.Count()
	})
	if ops < 100 {
		t.Fatalf("StressTest ops = %d, want >= 100", ops)
	}
}

func TestNNBenchWorkloads(t *testing.T) {
	env := simtime.NewEnv()
	counts := map[string]int{}
	env.Run(func() {
		tb := smallTestbed(env, 2)
		for i, op := range []string{OpRead8k, OpOpen, OpCreate, OpRename} {
			w, err := tb.NewNNBench(HostName(i%2), op, int64(i))
			if err != nil {
				t.Error(err)
				return
			}
			op := op
			w.Start()
			defer func(w *Workload, op string) { counts[op] = w.Rec.Count() }(w, op)
		}
		env.Sleep(2 * time.Second)
	})
	for _, op := range []string{OpRead8k, OpOpen, OpCreate, OpRename} {
		if counts[op] < 50 {
			t.Errorf("%s ops = %d, want >= 50", op, counts[op])
		}
	}
}

// TestFailedOpEndsTheSimulation: a closed-loop client whose op fails does
// not vanish from the run; the failure surfaces from Env.Run, naming the
// workload and the op.
func TestFailedOpEndsTheSimulation(t *testing.T) {
	env := simtime.NewEnv()
	pv := func() (pv any) {
		defer func() { pv = recover() }()
		env.Run(func() {
			tb := smallTestbed(env, 2)
			tb.newWorkload("host-A", "FLAKY", time.Millisecond, func(ctx context.Context, i int) error {
				if i == 2 {
					return errors.New("disk on fire")
				}
				return nil
			}).Start()
			env.Sleep(time.Second)
			t.Error("the simulation outlived a failed op")
		})
		return nil
	}()
	if want := "workload FLAKY: op 2: disk on fire"; fmt.Sprint(pv) != want {
		t.Fatalf("Env.Run raised %v, want %q", pv, want)
	}
}

func TestNNBenchUnknownOp(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		tb := smallTestbed(env, 2)
		if _, err := tb.NewNNBench("host-A", "Bogus", 0); err == nil {
			t.Error("expected error for unknown op")
		}
	})
}
