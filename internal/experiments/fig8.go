package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/baggage"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The §6.1 queries, as printed in the paper.
const (
	fig8Q3 = `From dnop In DN.DataTransferProtocol
GroupBy dnop.host
Select dnop.host, COUNT`
	fig8Q4 = `From getloc In NN.GetBlockLocations
Join st In StressTest.DoNextOp On st -> getloc
GroupBy st.host, getloc.src
Select st.host, getloc.src, COUNT`
	fig8Q5 = `From getloc In NN.GetBlockLocations
Join st In StressTest.DoNextOp On st -> getloc
GroupBy st.host, getloc.replicas
Select st.host, getloc.replicas, COUNT`
	fig8Q6 = `From DNop In DN.DataTransferProtocol
Join st In StressTest.DoNextOp On st -> DNop
GroupBy st.host, DNop.host
Select st.host, DNop.host, COUNT`
	fig8Q7 = `From DNop In DN.DataTransferProtocol
Join getloc In NN.GetBlockLocations On getloc -> DNop
Join st In StressTest.DoNextOp On st -> getloc
Where st.host != DNop.host
GroupBy DNop.host, getloc.replicas
Select DNop.host, getloc.replicas, COUNT`
)

// Fig8Result holds the seven sub-figures.
type Fig8Result struct {
	Fixed bool // both HDFS-6268 fixes applied
	Hosts []string

	// ClientThroughput is Fig 8a: per-host aggregate client request
	// throughput over time.
	ClientThroughput map[string][]metrics.Point
	// NetworkTx is Fig 8b: per-host network transmit throughput.
	NetworkTx map[string][]metrics.Point
	// DNThroughput is Fig 8c: per-DataNode request throughput (Q3).
	DNThroughput map[string][]metrics.Point
	// ReadCV is Fig 8d (summarized): per client host, the number of
	// distinct files read and the coefficient of variation of per-file
	// read counts — near-zero CV means uniform random file choice (Q4).
	ReadCV map[string]ReadSpread
	// ReplicaFreq is Fig 8e: frequency each client (row) saw each
	// DataNode (col) as a replica location (Q5).
	ReplicaFreq map[string]map[string]float64
	// SelectFreq is Fig 8f: frequency each client (row) selected each
	// DataNode (col) to read from (Q6).
	SelectFreq map[string]map[string]float64
	// PrefFreq is Fig 8g: observed probability of selecting DataNode
	// (row) when DataNode (col) also held a replica (Q7, non-local reads
	// only).
	PrefFreq map[string]map[string]float64

	// Q7BaggageBytes is the serialized baggage size of one stress request
	// with Q3–Q7 installed (the §6.3 ~137-byte claim is Q7's alone).
	Q7BaggageBytes int
}

// ReadSpread summarizes one client host's file reads (Fig 8d).
type ReadSpread struct {
	Files int
	CV    float64
}

// RunFig8 executes the §6.1 replica-selection case study; fixed applies
// both HDFS-6268 fixes (NameNode shuffling and client random selection),
// and false reproduces the bug. The paper runs 96 stress clients against 8
// DataNodes reading 8 kB from 10,000 128 MB files; this scales the client
// count and dataset down while preserving every sub-figure's shape.
func RunFig8(short, fixed bool) (*Fig8Result, error) {
	const (
		clientsPerHost = 3
		think          = 2 * time.Millisecond
	)
	res := &Fig8Result{Fixed: fixed}
	err := simulate(func(env *simtime.Env) error {
		tbCfg := testbed(short)
		tbCfg.HBase = false
		tbCfg.MapReduce = false
		tbCfg.NameNode.RandomizeReplicaOrder = fixed
		tbCfg.HDFSClient.RandomReplicaSelection = fixed
		tb := workload.NewTestbed(env, tbCfg)
		res.Hosts = tb.Hosts

		files, err := tb.StressDataset(size(short, 400, 100), 128e6)
		if err != nil {
			return err
		}

		// Declare the stress-test tracepoint in the query vocabulary
		// before any client process exists — tracepoint definitions are
		// independent of running code (§3).
		tb.C.PT.Registry().Define("StressTest.DoNextOp", "op")

		qs, err := installAll(tb, fig8Q3, fig8Q4, fig8Q5, fig8Q6, fig8Q7)
		if err != nil {
			return err
		}
		col3 := collect(qs[0])
		q4, q5, q6, q7 := qs[1], qs[2], qs[3], qs[4]

		// Start the stress clients.
		perHost := make(map[string][]*workload.Workload)
		id := 0
		for _, host := range tb.Hosts {
			for k := 0; k < clientsPerHost; k++ {
				id++
				w := tb.NewStressTest(host, k, files, think, int64(id)*7919)
				perHost[host] = append(perHost[host], w)
				w.Start()
			}
		}
		res.NetworkTx = sampleNetTx(env, tb)

		env.Sleep(size(short, 30*time.Second, 10*time.Second))
		tb.C.FlushAgents()

		// 8a: aggregate client throughput per host.
		res.ClientThroughput = make(map[string][]metrics.Point)
		for host, ws := range perHost {
			agg := map[time.Duration]float64{}
			for _, w := range ws {
				for _, p := range w.Rec.Throughput(time.Second) {
					agg[p.T] += p.V
				}
			}
			var ts []time.Duration
			for t := range agg {
				ts = append(ts, t)
			}
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
			for _, t := range ts {
				res.ClientThroughput[host] = append(res.ClientThroughput[host],
					metrics.Point{T: t, V: agg[t]})
			}
		}
		res.DNThroughput = col3.Series([]int{0}, 1, true)

		// 8d: per-client-host file-read distribution (Q4).
		res.ReadCV = make(map[string]ReadSpread)
		perClient := map[string][]float64{}
		for _, r := range q4.Rows() {
			perClient[r[0].Str()] = append(perClient[r[0].Str()], r[2].Float())
		}
		for host, counts := range perClient {
			res.ReadCV[host] = ReadSpread{Files: len(counts), CV: cv(counts)}
		}

		// 8e: client x DataNode replica-location frequency (Q5).
		res.ReplicaFreq = make(map[string]map[string]float64)
		for _, r := range q5.Rows() {
			client := r[0].Str()
			n := r[2].Float()
			for _, dn := range strings.Split(r[1].Str(), ",") {
				addCell(res.ReplicaFreq, client, dn, n)
			}
		}

		// 8f: client x DataNode selection frequency (Q6).
		res.SelectFreq = make(map[string]map[string]float64)
		for _, r := range q6.Rows() {
			addCell(res.SelectFreq, r[0].Str(), r[1].Str(), r[2].Float())
		}

		// 8g: chosen DataNode (row) vs co-replica (col) counts (Q7).
		chosen := make(map[string]map[string]float64)
		for _, r := range q7.Rows() {
			sel := r[0].Str()
			n := r[2].Float()
			for _, other := range strings.Split(r[1].Str(), ",") {
				if other != sel {
					addCell(chosen, sel, other, n)
				}
			}
		}
		// Normalize to P(row chosen | row and col both replicas).
		res.PrefFreq = make(map[string]map[string]float64)
		for _, a := range tb.Hosts {
			for _, b := range tb.Hosts {
				if a == b {
					continue
				}
				ab, ba := chosen[a][b], chosen[b][a]
				if ab+ba > 0 {
					addCell(res.PrefFreq, a, b, ab/(ab+ba))
				}
			}
		}

		// §6.3: Q7 baggage size for one representative request.
		res.Q7BaggageBytes, err = measureQ7Baggage(tb, files)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// measureQ7Baggage runs one stress op on a fresh request and returns the
// serialized size of that request's baggage once the op is done: what the
// installed queries (Q4–Q7, not Q7 alone) packed into it, whatever else
// the cluster is doing meanwhile.
func measureQ7Baggage(tb *workload.Testbed, files []string) (int, error) {
	w := tb.NewStressTest(tb.Hosts[0], 99, files, 0, 4242)
	var ctx context.Context
	w.Prepare = func(c context.Context) { ctx = c }
	if err := w.RunOnce(0); err != nil {
		return 0, err
	}
	return len(baggage.FromContext(ctx).Serialize()), nil
}

func cv(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, v := range vals {
		varsum += (v - mean) * (v - mean)
	}
	return math.Sqrt(varsum/float64(len(vals))) / mean
}

func addCell(m map[string]map[string]float64, r, c string, v float64) {
	if m[r] == nil {
		m[r] = make(map[string]float64)
	}
	m[r][c] += v
}

func fmtOpsRate(v float64) string { return fmt.Sprintf("%.0f ops/s", v) }

// Render produces the seven sub-figures as terminal text.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	mode := "HDFS-6268 bug active"
	if r.Fixed {
		mode = "fixes applied"
	}
	fmt.Fprintf(&b, "=== Fig 8 (%s) ===\n\n", mode)
	b.WriteString("--- 8a: client request throughput per host [ops/s] ---\n")
	b.WriteString(renderSeries(r.ClientThroughput, fmtOpsRate))
	b.WriteString("\n--- 8b: network transmit throughput per host ---\n")
	b.WriteString(renderSeries(r.NetworkTx, fmtBytesRate))
	b.WriteString("\n--- 8c: DataNode request throughput (Q3) ---\n")
	b.WriteString(renderSeries(r.DNThroughput, fmtOpsRate))
	b.WriteString("\n--- 8d: file read distribution per client host (Q4) ---\n")
	for _, h := range sortedKeys(r.ReadCV) {
		s := r.ReadCV[h]
		fmt.Fprintf(&b, "  %-8s %4d files read, cv=%.2f (uniform random if ~small)\n", h, s.Files, s.CV)
	}
	b.WriteString("\n--- 8e: frequency client (row) sees DataNode (col) as replica (Q5) ---\n")
	b.WriteString(renderMatrix(r.ReplicaFreq, r.Hosts))
	b.WriteString("\n--- 8f: frequency client (row) selects DataNode (col) (Q6) ---\n")
	b.WriteString(renderMatrix(r.SelectFreq, r.Hosts))
	b.WriteString("\n--- 8g: P(select row | row and col both replicas), non-local (Q7) ---\n")
	b.WriteString(renderMatrix(r.PrefFreq, r.Hosts))
	fmt.Fprintf(&b, "\nQ7 baggage per request: ~%d bytes\n", r.Q7BaggageBytes)
	return b.String()
}

func renderMatrix(m map[string]map[string]float64, hosts []string) string {
	return metrics.Heatmap(hosts, hosts, func(i, j int) float64 {
		return m[hosts[i]][hosts[j]]
	})
}
