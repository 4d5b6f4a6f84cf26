package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/baggage"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Table5 configurations, in paper row order.
const (
	CfgUnmodified = "Unmodified"
	CfgPTEnabled  = "PivotTracing Enabled"
	CfgBaggage1   = "Baggage - 1 Tuple"
	CfgBaggage60  = "Baggage - 60 Tuples"
	CfgQueries61  = "Queries - 6.1"
	CfgQueries62  = "Queries - 6.2"
)

// Configs lists the experiment configurations in order.
var Configs = []string{CfgUnmodified, CfgPTEnabled, CfgBaggage1, CfgBaggage60, CfgQueries61, CfgQueries62}

// Ops lists the measured operations in paper column order.
var Ops = []string{workload.OpRead8k, workload.OpOpen, workload.OpCreate, workload.OpRename}

// Table5Result holds mean latencies (seconds) per config per op, plus
// derived overhead percentages relative to the unmodified configuration.
type Table5Result struct {
	Latency  map[string]map[string]float64 // config -> op -> mean seconds
	Overhead map[string]map[string]float64 // config -> op -> percent
	OpsRun   map[string]map[string]int
}

// RunTable5 executes the §6.3 application-level overhead experiment: HDFS
// stress operations (derived from NNBench) measured under each of the six
// instrumentation configurations.
func RunTable5(short bool) (*Table5Result, error) {
	res := &Table5Result{
		Latency:  map[string]map[string]float64{},
		Overhead: map[string]map[string]float64{},
		OpsRun:   map[string]map[string]int{},
	}
	for _, config := range Configs {
		lat, counts, err := runTable5Config(short, config)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", config, err)
		}
		res.Latency[config] = lat
		res.OpsRun[config] = counts
	}
	base := res.Latency[CfgUnmodified]
	for _, config := range Configs {
		res.Overhead[config] = map[string]float64{}
		for _, op := range Ops {
			if base[op] > 0 {
				res.Overhead[config][op] = (res.Latency[config][op] - base[op]) / base[op] * 100
			}
		}
	}
	return res, nil
}

// padTuples builds the pre-packed baggage contents for the baggage
// configurations: n 8-byte tuples, as in the paper's microbenchmarks.
func padTuples(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{tuple.Int(int64(0x0102030405060708 + i))}
	}
	return out
}

func runTable5Config(short bool, config string) (map[string]float64, map[string]int, error) {
	lat := map[string]float64{}
	counts := map[string]int{}
	err := simulate(func(env *simtime.Env) error {
		tbCfg := testbed(short)
		// A short RPC latency keeps the instrumentation cost visible; the
		// paper's testbed had sub-millisecond NameNode ops.
		tbCfg.Cluster.RPCLatency = 20 * time.Microsecond
		tb := workload.NewTestbed(env, tbCfg)
		tb.C.PT.Registry().Define("StressTest.DoNextOp", "op")

		// One workload per op, spread over hosts, in Ops order. The think
		// time bounds the closed-loop rate: it changes how many latencies
		// are sampled, not what they are.
		ws := make([]*workload.Workload, len(Ops))
		for i, op := range Ops {
			w, err := tb.NewNNBench(tb.Workers[i%len(tb.Workers)], op, int64(i+1))
			if err != nil {
				return err
			}
			w.SetThink(time.Millisecond)
			ws[i] = w
		}

		var err error
		switch config {
		case CfgUnmodified, CfgPTEnabled:
			// PT enabled is the default state of this testbed; unmodified
			// differs only by the (zero-cost) idle agents.
		case CfgBaggage1, CfgBaggage60:
			pad := padTuples(1)
			if config == CfgBaggage60 {
				pad = padTuples(60)
			}
			padSpec := baggage.SetSpec{Kind: baggage.All, Fields: tuple.Schema{"pad"}}
			for _, w := range ws {
				w.Prepare = func(ctx context.Context) {
					baggage.FromContext(ctx).Pack("pad", padSpec, pad...)
				}
			}
		case CfgQueries61:
			_, err = installAll(tb, fig8Q3, fig8Q4, fig8Q5, fig8Q6, fig8Q7)
		case CfgQueries62:
			_, err = installAll(tb, fig9QRPC, fig9QDNQueue, fig9QDNXfer)
		}
		if err != nil {
			return err
		}

		for _, w := range ws {
			w.Start()
		}
		env.Sleep(size(short, 20*time.Second, 8*time.Second))
		for i, op := range Ops {
			lat[op] = ws[i].Rec.Mean()
			counts[op] = ws[i].Rec.Count()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return lat, counts, nil
}

// Render produces the Table 5 analog: overhead percentages per config/op.
func (r *Table5Result) Render() string {
	var b strings.Builder
	b.WriteString("=== Table 5: latency overheads for the HDFS stress test ===\n")
	header := append([]string{"configuration"}, Ops...)
	var rows [][]string
	for _, config := range Configs {
		row := []string{config}
		for _, op := range Ops {
			row = append(row, fmt.Sprintf("%+.1f%%", r.Overhead[config][op]))
		}
		rows = append(rows, row)
	}
	b.WriteString(metrics.RenderTable(header, rows))
	b.WriteString("\nmean op latency (unmodified): ")
	for _, op := range Ops {
		fmt.Fprintf(&b, "%s=%s ", op, fmtSeconds(r.Latency[CfgUnmodified][op]))
	}
	b.WriteString("\n")
	return b.String()
}
