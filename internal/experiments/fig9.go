package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The latency-decomposition queries: Q8-style timestamp joins (§6.2),
// grouped by host so the faulty component stands out.
const (
	fig9QRPC = `From response In RPC.Respond
Join request In MostRecent(RPC.Receive) On request -> response
GroupBy response.host, response.procName
Select response.host, response.procName, AVERAGE(response.time - request.time)`
	fig9QDNXfer = `From t2 In DN.TransferEnd
Join t1 In MostRecent(DN.TransferStart) On t1 -> t2
GroupBy t2.host, t2.dest
Select t2.host, t2.dest, AVERAGE(t2.time - t1.time)`
	fig9QDNQueue = `From s In DN.OpStart
Join q In MostRecent(DN.OpQueued) On q -> s
GroupBy s.host
Select s.host, AVERAGE(s.time - q.time)`
	fig9QRSQueue = `From d In RS.Dequeue
Join e In MostRecent(RS.Enqueue) On e -> d
GroupBy d.host
Select d.host, AVERAGE(d.time - e.time)`
	fig9QRSProc = `From p In RS.ProcessEnd
Join d In MostRecent(RS.Dequeue) On d -> p
GroupBy p.host
Select p.host, AVERAGE(p.time - d.time)`
)

// fig9Spans are the Fig 9b components, each with its query and the number
// of leading key columns its rows carry before the average.
var fig9Spans = []struct {
	name, text string
	keys       int
}{
	{"RPC latency", fig9QRPC, 2},    // host, proc
	{"DN transfer", fig9QDNXfer, 2}, // src, dest
	{"DN queued", fig9QDNQueue, 1},
	{"RS queue", fig9QRSQueue, 1},
	{"RS process", fig9QRSProc, 1},
}

// Fig9Result holds the three sub-figures.
type Fig9Result struct {
	Hosts     []string
	FaultHost string
	FaultAt   time.Duration // when FaultHost's NIC degrades

	// Latencies is Fig 9a: scan request latencies over time (seconds).
	Latencies []metrics.Point
	// Decomposition is Fig 9b: average span per component per host, in
	// seconds, before and after the fault.
	Before, After map[string]map[string]float64 // component -> host -> seconds
	// NetworkTx is Fig 9c: per-host network transmit throughput.
	NetworkTx map[string][]metrics.Point
}

// RunFig9 executes the §6.2 network limplock case study: an HBase workload
// experiences end-to-end latency spikes after one host's NIC degrades from
// 1 Gbit to 100 Mbit (the paper's host B); Pivot Tracing queries decompose
// request latency per component and identify the bottleneck host.
func RunFig9(short bool) (*Fig9Result, error) {
	const scanners, getters = 4, 4
	duration := size(short, 60*time.Second, 30*time.Second)
	res := &Fig9Result{FaultAt: size(short, 20*time.Second, 10*time.Second)}
	err := simulate(func(env *simtime.Env) error {
		tbCfg := testbed(short)
		// Two replicas per store block: most RegionServer reads cross the
		// network, so the limping NIC is exercised from both sides.
		tbCfg.NameNode.Replication = 2
		tb := workload.NewTestbed(env, tbCfg)
		tb.StartHBase(tb.Workers, 4*len(tb.Workers))
		res.Hosts = tb.Workers
		res.FaultHost = tb.Workers[1]
		if err := tb.InitHBaseStores(4e9); err != nil {
			return err
		}
		cols := make([]*metrics.Collector, len(fig9Spans))
		for i, sp := range fig9Spans {
			h, err := tb.C.PT.Install(sp.text)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			cols[i] = collect(h)
		}

		// Workloads: a mix of scans (bulk, network-heavy) and gets.
		var scans []*workload.Workload
		for i := 0; i < scanners; i++ {
			w := tb.NewHScan(tb.Workers[i%len(tb.Workers)], int64(100+i))
			scans = append(scans, w)
			w.Start()
		}
		for i := 0; i < getters; i++ {
			tb.NewHGet(tb.Workers[(i+2)%len(tb.Workers)], int64(200+i)).Start()
		}
		res.NetworkTx = sampleNetTx(env, tb)

		env.Sleep(res.FaultAt)
		tb.C.Host(res.FaultHost).SetNICRate(netsim.HundredMbit)
		env.Sleep(duration - res.FaultAt)
		tb.C.FlushAgents()
		res.Before = snapshotSpans(cols, 0, res.FaultAt)
		res.After = snapshotSpans(cols, res.FaultAt, duration+time.Second)

		// 9a: scan latencies over time.
		for _, w := range scans {
			res.Latencies = append(res.Latencies, w.Rec.Latencies()...)
		}
		sort.Slice(res.Latencies, func(i, j int) bool {
			return res.Latencies[i].T < res.Latencies[j].T
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// snapshotSpans reads the mean span (seconds) per component/host over the
// time window [from, to) from each span's collector, in fig9Spans order.
func snapshotSpans(cols []*metrics.Collector, from, to time.Duration) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for i, sp := range fig9Spans {
		series := cols[i].Series([]int{0, 1}[:sp.keys], sp.keys, false)
		m := make(map[string]float64)
		for key, pts := range series {
			sum, n := 0.0, 0
			for _, p := range pts {
				if p.T >= from && p.T < to {
					sum += p.V
					n++
				}
			}
			if n > 0 {
				m[key] = sum / float64(n) / float64(time.Second) // ns -> s
			}
		}
		out[sp.name] = m
	}
	return out
}

// Render produces the three sub-figures as terminal text.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fig 9: network limplock on %s at t=%v ===\n\n", r.FaultHost, r.FaultAt)

	b.WriteString("--- 9a: scan request latencies over time ---\n")
	vals := make([]float64, 0, len(r.Latencies))
	for _, p := range r.Latencies {
		vals = append(vals, p.V)
	}
	fmt.Fprintf(&b, "  %d requests, sparkline of latency: %s\n", len(vals), metrics.Sparkline(bin(vals, 60)))

	b.WriteString("\n--- 9b: mean span per component/host, before vs after fault [s] ---\n")
	for _, c := range sortedKeys(r.After) {
		fmt.Fprintf(&b, "  %s:\n", c)
		for _, h := range sortedKeys(r.After[c]) {
			marker := ""
			if strings.HasPrefix(h, r.FaultHost) {
				marker = "   <-- faulty host"
			}
			fmt.Fprintf(&b, "    %-24s %10s -> %10s%s\n", h,
				fmtSeconds(r.Before[c][h]), fmtSeconds(r.After[c][h]), marker)
		}
	}

	b.WriteString("\n--- 9c: network transmit throughput per host ---\n")
	b.WriteString(renderSeries(r.NetworkTx, fmtBytesRate))
	return b.String()
}

// bin downsamples values to at most n buckets by averaging.
func bin(vals []float64, n int) []float64 {
	if len(vals) <= n {
		return vals
	}
	out := make([]float64, n)
	per := float64(len(vals)) / float64(n)
	for i := 0; i < n; i++ {
		lo, hi := int(float64(i)*per), int(float64(i+1)*per)
		if hi > len(vals) {
			hi = len(vals)
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		if hi > lo {
			out[i] = sum / float64(hi-lo)
		}
	}
	return out
}
