package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Fig1Result holds the three sub-figures.
type Fig1Result struct {
	// HostSeries is Fig 1a: per-host HDFS DataNode read throughput (Q1).
	HostSeries map[string][]metrics.Point
	// AppSeries is Fig 1b: HDFS read throughput grouped by top-level
	// client application (Q2, the happened-before join).
	AppSeries map[string][]metrics.Point
	// PivotRead/PivotWrite are Fig 1c: disk read/write bytes by host and
	// by source process for the MRsort10g application.
	PivotRead, PivotWrite map[string]map[string]float64 // host -> proc -> bytes
	Q1, Q2                string
}

// queries for Fig 1, as printed in the paper (§2.1).
const (
	fig1Q1 = `From incr In DataNodeMetrics.incrBytesRead
GroupBy incr.host
Select incr.host, SUM(incr.delta)`
	fig1Q2 = `From incr In DataNodeMetrics.incrBytesRead
Join cl In First(ClientProtocols) On cl -> incr
GroupBy cl.procName
Select cl.procName, SUM(incr.delta)`
	// The two Fig 1c queries instrument the file streams, still joining
	// with the client process name.
	fig1QRead = `From fis In FileInputStream.read
Join cl In First(ClientProtocols) On cl -> fis
GroupBy cl.procName, fis.host, fis.procName
Select cl.procName, fis.host, fis.procName, SUM(fis.length)`
	fig1QWrite = `From fos In FileOutputStream.write
Join cl In First(ClientProtocols) On cl -> fos
GroupBy cl.procName, fos.host, fos.procName
Select cl.procName, fos.host, fos.procName, SUM(fos.length)`
)

// RunFig1 executes the §2.1 motivating experiment: six client applications
// share the cluster while the §2.1 queries apportion disk bandwidth. The sort
// inputs are scaled down from the paper's 10 GB and 100 GB so that several
// jobs complete in the window.
func RunFig1(short bool) (*Fig1Result, error) {
	const files = 16 // per FSread dataset
	sort10g, sort100g := size(short, 2e9, 1e9), size(short, 20e9, 2e9)
	res := &Fig1Result{Q1: fig1Q1, Q2: fig1Q2}
	err := simulate(func(env *simtime.Env) error {
		tb := workload.NewTestbed(env, testbed(short))
		tb.StartHBase(tb.Workers, 4*len(tb.Workers))
		tb.StartMapReduce(tb.Workers, 0)
		if err := tb.InitHBaseStores(2e9); err != nil {
			return err
		}
		qs, err := installAll(tb, fig1Q1, fig1Q2, fig1QRead, fig1QWrite)
		if err != nil {
			return err
		}
		col1, col2 := collect(qs[0]), collect(qs[1])

		// The six client applications of §2.1.
		makers := []func() (*workload.Workload, error){
			func() (*workload.Workload, error) {
				return tb.NewFSRead(workload.HostName(0), "FSREAD4M", 4e6, files, 1)
			},
			func() (*workload.Workload, error) {
				return tb.NewFSRead(workload.HostName(1), "FSREAD64M", 64e6, files, 2)
			},
			func() (*workload.Workload, error) { return tb.NewHGet(workload.HostName(2), 3), nil },
			func() (*workload.Workload, error) { return tb.NewHScan(workload.HostName(3), 4), nil },
			func() (*workload.Workload, error) {
				return tb.NewMRSort(workload.HostName(4), "MRSORT10G", sort10g)
			},
			func() (*workload.Workload, error) {
				return tb.NewMRSort(workload.HostName(5), "MRSORT100G", sort100g)
			},
		}
		for _, m := range makers {
			w, err := m()
			if err != nil {
				return err
			}
			w.Start()
		}

		env.Sleep(size(short, 2*time.Minute, 20*time.Second))
		tb.C.FlushAgents()

		res.HostSeries = col1.Series([]int{0}, 1, true)
		res.AppSeries = col2.Series([]int{0}, 1, true)
		res.PivotRead = pivotRows(qs[2].Rows(), "MRSORT10G")
		res.PivotWrite = pivotRows(qs[3].Rows(), "MRSORT10G")
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pivotRows builds host -> proc -> bytes for one application from the
// Fig 1c query rows (app, host, proc, bytes).
func pivotRows(rows []tuple.Tuple, app string) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, r := range rows {
		if r[0].Str() == app {
			addCell(out, r[1].Str(), r[2].Str(), r[3].Float())
		}
	}
	return out
}

// Render produces the three sub-figures as terminal text.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("=== Fig 1a: HDFS DataNode throughput per machine (Q1) ===\n")
	b.WriteString(renderSeries(r.HostSeries, fmtBytesRate))
	b.WriteString("\n=== Fig 1b: HDFS throughput by client application (Q2) ===\n")
	b.WriteString(renderSeries(r.AppSeries, fmtBytesRate))
	b.WriteString("\n=== Fig 1c: disk IO pivot table for MRSORT10G (host x source process) ===\n")
	b.WriteString(r.renderPivot())
	return b.String()
}

// renderPivot renders the Fig 1c pivot table with per-row/column totals.
func (r *Fig1Result) renderPivot() string {
	procSet := map[string]bool{}
	hostSet := map[string]bool{}
	for _, m := range []map[string]map[string]float64{r.PivotRead, r.PivotWrite} {
		for host, row := range m {
			hostSet[host] = true
			for p := range row {
				procSet[p] = true
			}
		}
	}
	hosts, procs := sortedKeys(hostSet), sortedKeys(procSet)
	header := append([]string{"host"}, procs...)
	header = append(header, "Σmachine")
	var rows [][]string
	colTotals := make([]float64, len(procs))
	grand := 0.0
	for _, h := range hosts {
		row := []string{h}
		rowTotal := 0.0
		for j, p := range procs {
			rd, wr := r.PivotRead[h][p], r.PivotWrite[h][p]
			row = append(row, fmt.Sprintf("r%.0fM w%.0fM", rd/1e6, wr/1e6))
			colTotals[j] += rd + wr
			rowTotal += rd + wr
		}
		row = append(row, fmt.Sprintf("%.0fM", rowTotal/1e6))
		grand += rowTotal
		rows = append(rows, row)
	}
	totalRow := []string{"Σcluster"}
	for _, t := range colTotals {
		totalRow = append(totalRow, fmt.Sprintf("%.0fM", t/1e6))
	}
	totalRow = append(totalRow, fmt.Sprintf("%.0fM", grand/1e6))
	rows = append(rows, totalRow)
	return metrics.RenderTable(header, rows)
}
