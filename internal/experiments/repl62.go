package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// GCConfig sizes the §6.2 rogue-GC replication: one RegionServer suffers
// periodic stop-the-world pauses; latency-decomposition queries identify
// it.
type GCConfig struct {
	Hosts      int
	Duration   time.Duration
	GCHost     int
	GCInterval time.Duration
	GCPause    time.Duration
}

// DefaultGCConfig mirrors the VScope scenario replicated in §6.2.
func DefaultGCConfig() GCConfig {
	return GCConfig{
		Hosts:      8,
		Duration:   30 * time.Second,
		GCHost:     2,
		GCInterval: 3 * time.Second,
		GCPause:    1500 * time.Millisecond,
	}
}

// The GC span query: pack the GC start time, unpack at GC end.
const replQGC = `From g2 In RS.GCEnd
Join g1 In MostRecent(RS.GCStart) On g1 -> g2
GroupBy g2.host
Select g2.host, COUNT, AVERAGE(g2.time - g1.time)`

// GCResult identifies the rogue RegionServer.
type GCResult struct {
	Cfg    GCConfig
	GCHost string
	// GCSpans: host -> (pauses, mean pause seconds).
	GCSpans map[string][2]float64
	// RSLatency: host/proc -> mean RPC handler latency in seconds.
	RSLatency map[string]float64
}

// RunGC executes the rogue-GC replication.
func RunGC(cfg GCConfig) (*GCResult, error) {
	res := &GCResult{Cfg: cfg, GCSpans: map[string][2]float64{}, RSLatency: map[string]float64{}}
	err := simulate(func(env *simtime.Env) error {
		tbCfg := workload.DefaultTestbedConfig()
		tbCfg.Hosts = cfg.Hosts
		tbCfg.MapReduce = false
		tb := workload.NewTestbed(env, tbCfg)
		if err := tb.InitHBaseStores(2e9); err != nil {
			return err
		}
		res.GCHost = tb.Hosts[cfg.GCHost%len(tb.Hosts)]
		qs, err := installAll(tb, replQGC, fig9QRPC)
		if err != nil {
			return err
		}

		tb.RSs[cfg.GCHost%len(tb.RSs)].EnableRogueGC(cfg.GCInterval, cfg.GCPause)

		for i := 0; i < 4; i++ {
			tb.NewHGet(tb.Hosts[i%len(tb.Hosts)], int64(i+10)).Start()
		}
		env.Sleep(cfg.Duration)
		tb.C.FlushAgents()

		for _, r := range qs[0].Rows() {
			res.GCSpans[r[0].Str()] = [2]float64{r[1].Float(), r[2].Float() / float64(time.Second)}
		}
		for _, r := range qs[1].Rows() {
			if r[1].Str() == "RegionServer" {
				res.RSLatency[r[0].Str()] = r[2].Float() / float64(time.Second)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render summarizes the diagnosis.
func (r *GCResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== §6.2 replication: rogue GC in a RegionServer (on %s) ===\n", r.GCHost)
	b.WriteString("GC pauses observed (RS.GCStart -> RS.GCEnd):\n")
	for _, host := range sortedKeys(r.GCSpans) {
		v := r.GCSpans[host]
		fmt.Fprintf(&b, "  %-10s %3.0f pauses, mean %s\n", host, v[0], fmtSeconds(v[1]))
	}
	b.WriteString("RegionServer mean handler latency:\n")
	for _, host := range sortedKeys(r.RSLatency) {
		marker := ""
		if host == r.GCHost {
			marker = "   <-- rogue GC host"
		}
		fmt.Fprintf(&b, "  %-10s %s%s\n", host, fmtSeconds(r.RSLatency[host]), marker)
	}
	return b.String()
}

// NNLockConfig sizes the §6.2 NameNode exclusive-locking replication.
type NNLockConfig struct {
	Hosts    int
	Clients  int
	Duration time.Duration
	OpDelay  time.Duration
}

// DefaultNNLockConfig uses enough concurrent clients for lock contention
// to dominate.
func DefaultNNLockConfig() NNLockConfig {
	return NNLockConfig{Hosts: 4, Clients: 16, Duration: 10 * time.Second, OpDelay: 200 * time.Microsecond}
}

// NNLockResult compares read-op latency under shared vs exclusive locking.
type NNLockResult struct {
	Cfg                  NNLockConfig
	SharedMean, ExclMean float64 // seconds
}

// RunNNLock executes both locking configurations.
func RunNNLock(cfg NNLockConfig) (*NNLockResult, error) {
	run := func(exclusive bool) (mean float64, err error) {
		err = simulate(func(env *simtime.Env) error {
			tbCfg := workload.DefaultTestbedConfig()
			tbCfg.Hosts = cfg.Hosts
			tbCfg.HBase = false
			tbCfg.MapReduce = false
			tbCfg.NameNode.ExclusiveLocking = exclusive
			tbCfg.NameNode.OpDelay = cfg.OpDelay
			tb := workload.NewTestbed(env, tbCfg)
			tb.C.PT.Registry().Define("StressTest.DoNextOp", "op")
			var ws []*workload.Workload
			for i := 0; i < cfg.Clients; i++ {
				w, err := tb.NewNNBench(workload.HostName(i%cfg.Hosts), workload.OpOpen, int64(i+1))
				if err != nil {
					return err
				}
				ws = append(ws, w)
				w.Start()
			}
			env.Sleep(cfg.Duration)
			sum, n := 0.0, 0
			for _, w := range ws {
				if w.Rec.Count() > 0 {
					sum += w.Rec.Mean()
					n++
				}
			}
			if n > 0 {
				mean = sum / float64(n)
			}
			return nil
		})
		return mean, err
	}
	shared, err := run(false)
	if err != nil {
		return nil, err
	}
	excl, err := run(true)
	if err != nil {
		return nil, err
	}
	return &NNLockResult{Cfg: cfg, SharedMean: shared, ExclMean: excl}, nil
}

// Render summarizes the comparison.
func (r *NNLockResult) Render() string {
	return fmt.Sprintf(`=== §6.2 replication: overloaded NameNode, exclusive write locking ===
Open latency, %d concurrent clients:
  shared (RW) locking:    %s
  exclusive locking:      %s   (%.1fx slower)
`, r.Cfg.Clients, fmtSeconds(r.SharedMean), fmtSeconds(r.ExclMean),
		safeDiv(r.ExclMean, r.SharedMean))
}
