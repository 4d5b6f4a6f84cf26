package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// The GC span query: pack the GC start time, unpack at GC end.
const replQGC = `From g2 In RS.GCEnd
Join g1 In MostRecent(RS.GCStart) On g1 -> g2
GroupBy g2.host
Select g2.host, COUNT, AVERAGE(g2.time - g1.time)`

// GCResult identifies the rogue RegionServer.
type GCResult struct {
	GCHost string
	// GCSpans: host -> (pauses, mean pause seconds).
	GCSpans map[string][2]float64
	// RSLatency: host/proc -> mean RPC handler latency in seconds.
	RSLatency map[string]float64
}

// RunGC executes the §6.2 replication of VScope's rogue-GC scenario: one
// RegionServer suffers a 1.5 s stop-the-world pause every 3 s, and
// latency-decomposition queries identify it.
func RunGC(short bool) (*GCResult, error) {
	const gcHost = 2 // index into the worker hosts
	res := &GCResult{GCSpans: map[string][2]float64{}, RSLatency: map[string]float64{}}
	err := simulate(func(env *simtime.Env) error {
		tb := workload.NewTestbed(env, testbed(short))
		servers := tb.StartHBase(tb.Workers, 4*len(tb.Workers))
		if err := tb.InitHBaseStores(2e9); err != nil {
			return err
		}
		res.GCHost = tb.Workers[gcHost]
		qs, err := installAll(tb, replQGC, fig9QRPC)
		if err != nil {
			return err
		}

		servers[gcHost].EnableRogueGC(3*time.Second, 1500*time.Millisecond)

		for i := 0; i < 4; i++ {
			tb.NewHGet(tb.Workers[i%len(tb.Workers)], int64(i+10)).Start()
		}
		env.Sleep(size(short, 30*time.Second, 15*time.Second))
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

// NNLockResult compares read-op latency under shared vs exclusive locking.
type NNLockResult struct {
	Clients              int
	SharedMean, ExclMean float64 // seconds
}

// RunNNLock executes the §6.2 NameNode exclusive-locking replication under
// both locking configurations, with enough concurrent clients for lock
// contention to dominate.
func RunNNLock(short bool) (*NNLockResult, error) {
	const hosts, clients = 4, 16
	run := func(exclusive bool) (mean float64, err error) {
		err = simulate(func(env *simtime.Env) error {
			tbCfg := workload.DefaultTestbedConfig()
			tbCfg.Hosts = hosts
			tbCfg.NameNode.ExclusiveLocking = exclusive
			tbCfg.NameNode.OpDelay = 200 * time.Microsecond
			tb := workload.NewTestbed(env, tbCfg)
			tb.C.PT.Registry().Define("StressTest.DoNextOp", "op")
			var ws []*workload.Workload
			for i := 0; i < clients; i++ {
				w, err := tb.NewNNBench(workload.HostName(i%hosts), workload.OpOpen, int64(i+1))
				if err != nil {
					return err
				}
				ws = append(ws, w)
				w.Start()
			}
			env.Sleep(size(short, 10*time.Second, 5*time.Second))
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
	return &NNLockResult{Clients: clients, SharedMean: shared, ExclMean: excl}, nil
}

// Render summarizes the comparison.
func (r *NNLockResult) Render() string {
	return fmt.Sprintf(`=== §6.2 replication: overloaded NameNode, exclusive write locking ===
Open latency, %d concurrent clients:
  shared (RW) locking:    %s
  exclusive locking:      %s   (%.1fx slower)
`, r.Clients, fmtSeconds(r.SharedMean), fmtSeconds(r.ExclMean),
		safeDiv(r.ExclMean, r.SharedMean))
}
