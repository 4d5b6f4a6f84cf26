package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/advice"
	"repro/internal/baggage"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
	"repro/internal/yarn"
)

// All returns the scenario library in its fixed run order.
func All() []*Scenario {
	return []*Scenario{
		Limplock(),
		HotRegion(),
		StragglerReducers(),
		CascadingFailover(),
		RebalancingStorm(),
		ThunderingHerd(),
		RollingRestarts(),
		MultiTenantStorm(),
		SamplingStorm(),
	}
}

// ByID returns the scenario with the given ID, or nil.
func ByID(id string) *Scenario {
	for _, s := range All() {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// ---- 1. limplock ------------------------------------------------------

const qDNCount = `From dnop In DN.DataTransferProtocol
GroupBy dnop.host
Select dnop.host, COUNT`

const qDNBytes = `From incr In DataNodeMetrics.incrBytesRead
GroupBy incr.host
Select incr.host, SUM(incr.delta)`

// qDiskLatency spans exactly the local disk work of one DataNode op:
// DN.OpStart fires before the seek + read, DN.TransferStart after.
const qDiskLatency = `From x In DN.TransferStart
Join s In MostRecent(DN.OpStart) On s -> x
GroupBy x.host
Select x.host, AVERAGE(x.time - s.time)`

// Limplock reproduces a limplock disk: one DataNode's disk degrades to
// a tenth of its bandwidth without failing, and the per-host disk-latency
// GROUP BY pins the limping host while op counts stay unremarkable.
func Limplock() *Scenario {
	return &Scenario{
		ID:          "limplock",
		Name:        "Limplock disk",
		Description: "one DataNode disk at 1/10 speed; disk-latency GROUP BY pins the host",
		Interval:    500 * time.Millisecond,
		Horizon:     12 * time.Second,
		Run: func(r *Run) error {
			hosts := r.Workers
			r.StartDataNodes()
			const readSize = 64e3
			files := r.Dataset("/data/f%06d", 2*len(hosts), readSize)

			qCount := r.Query(qDNCount)
			qBytes := r.Query(qDNBytes)

			clients, fs := r.HDFSClients(r.Size(len(hosts)/4, 16))
			join := r.DriveAsync(clients, 80, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
				return fs[i].Read(ctx, files[rng.Intn(len(files))], 0, readSize)
			})

			r.Await("cluster-serving", qCount, 3, func(rows []tuple.Tuple) error {
				if n := len(rows); n < len(hosts)/2 {
					return fmt.Errorf("only %d of %d DataNodes reporting", n, len(hosts))
				}
				return nil
			})

			// Fault: the disk limps at 1/10 on the host holding the first
			// replica of files[0]. Choosing the limping host from the
			// placement (rather than the other way around) lets dedicated
			// probe readers hit it deterministically: on a thousand-host
			// topology each DataNode holds only a handful of replicas, so
			// uniform random traffic cannot be relied on to exercise the
			// limping disk before the checkpoint deadline.
			locs, err := r.AdminFS.GetBlockLocations(r.Admin.NewRequest(), files[0], 0, readSize)
			if err != nil || len(locs) == 0 || len(locs[0].Replicas) == 0 {
				return fmt.Errorf("limplock: block locations for %s: %v", files[0], err)
			}
			limpHost := locs[0].Replicas[0]
			var limp *hdfs.DataNode
			for _, dn := range r.DNs {
				if dn.Proc.Info.Host == limpHost {
					limp = dn
				}
			}
			// 1/10, not an even harsher cut: the disk is processor-shared,
			// so at 1/100 the pile-up of concurrent reads would delay the
			// FIRST completion (and hence the first latency tuple) beyond
			// any reasonable checkpoint deadline.
			limp.SetDiskRate(netsim.DiskRate / 10)
			r.Logf("  fault: %s disk -> %.0f B/s at t=%s", limpHost, netsim.DiskRate/10, r.Env.Now())

			// Install the latency query only now: it aggregates purely
			// post-fault ops (pre-fault reads at baseline latency would
			// otherwise dilute the limping host's average below the
			// dominance threshold on large topologies, where each host
			// serves only a handful of reads).
			qLat := r.Query(qDiskLatency)

			// Two probe readers with first-replica selection read files[0]
			// back to back: guaranteed post-fault ops on the limping disk.
			// Two, not more — concurrent reads share the crippled disk's
			// bandwidth, and a larger herd would push the first completion
			// (and hence the first latency tuple) past the deadline.
			probes := make([]*cluster.Process, 2)
			fsProbes := make([]*hdfs.Client, len(probes))
			for i := range probes {
				probes[i] = r.C.StartUnmonitored(hosts[len(hosts)-1-i], fmt.Sprintf("Probe%d", i))
				fsProbes[i] = hdfs.NewClient(probes[i], r.NN, hdfs.ClientConfig{RandomReplicaSelection: false, Seed: r.Seed})
			}
			probeJoin := r.DriveAsync(probes, 6, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				return fsProbes[i].Read(ctx, files[0], 0, readSize)
			})

			r.Await("limp-disk-dominates", qLat, 4, func(rows []tuple.Tuple) error {
				lats := groupVals(rows)
				limpLat := lats[limpHost]
				delete(lats, limpHost)
				_, other := maxVal(lats)
				if limpLat < 5*other || other == 0 {
					return fmt.Errorf("limp host %s at %.2fms vs max other %.2fms", limpHost, limpLat/1e6, other/1e6)
				}
				return nil
			})

			join()
			probeJoin()
			reads := float64(r.Requests())
			r.AwaitTotal("ops-conserved", qCount, reads)
			r.AwaitTotal("bytes-conserved", qBytes, reads*readSize)
			return nil
		},
	}
}

// ---- 2. hot region ----------------------------------------------------

const qRSCount = `From op In RS.ClientService
GroupBy op.host
Select op.host, COUNT`

// HotRegion skews 80% of HBase gets onto rows owned by one RegionServer;
// the per-host RS.ClientService GROUP BY exposes the hotspot.
func HotRegion() *Scenario {
	return &Scenario{
		ID:          "hot-region",
		Name:        "Hot HBase region",
		Description: "80% of gets hit one RegionServer; per-host op GROUP BY exposes it",
		Interval:    500 * time.Millisecond,
		Horizon:     10 * time.Second,
		Run: func(r *Run) error {
			r.StartDataNodes()
			nRS := r.Size(64, 12)
			servers := r.StartHBase(r.Workers[:nRS], 0)
			if err := r.InitHBaseStores(8e6); err != nil {
				return err
			}
			hotHost := servers[0].Proc.Info.Host

			// Partition candidate rows by owner so the workload can aim.
			var hotRows, allRows []string
			for i := 0; len(hotRows) < 48 || len(allRows) < 4*nRS; i++ {
				row := fmt.Sprintf("row-%05d", i)
				allRows = append(allRows, row)
				if r.HB.HostFor(row) == hotHost {
					hotRows = append(hotRows, row)
				}
			}

			q := r.Query(qRSCount)

			clients, hbc := r.HBaseClients(r.Size(192, 24))
			join := r.DriveAsync(clients, 100, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
				row := allRows[rng.Intn(len(allRows))]
				if rng.Float64() < 0.8 {
					row = hotRows[rng.Intn(len(hotRows))]
				}
				return hbc[i].Get(ctx, row, 8e3)
			})

			// The floor is absolute, not a fraction of issued ops: the hot
			// server's disk serializes its gets, so early-interval
			// throughput is capped by disk bandwidth regardless of how
			// many gets are queued behind it.
			r.Await("hot-server-dominates", q, 4, func(rows []tuple.Tuple) error {
				counts := groupVals(rows)
				hot := counts[hotHost]
				delete(counts, hotHost)
				_, second := maxVal(counts)
				if hot < 200 || hot < 8*second {
					return fmt.Errorf("hot %s=%v vs next %v", hotHost, hot, second)
				}
				return nil
			})

			join()
			r.AwaitTotal("gets-conserved", q, float64(r.Requests()))
			return nil
		},
	}
}

// ---- 3. straggler reducers --------------------------------------------

const qReduceIO = `From w In FileOutputStream.write
Where w.procName == "Reduce"
GroupBy w.host
Select w.host, SUM(w.length)`

const qReduceDone = `From t In AM.ReduceTaskComplete
GroupBy t.id
Select t.id, COUNT`

// StragglerReducers runs a MapReduce job whose first reducers churn
// through 6x merge-spill IO; the per-host Reduce disk GROUP BY pins the
// straggler hosts.
func StragglerReducers() *Scenario {
	return &Scenario{
		ID:          "stragglers",
		Name:        "Straggler reducers",
		Description: "2 reducers spill 6x; per-host Reduce disk SUM pins them",
		Interval:    time.Second,
		Horizon:     60 * time.Second,
		Run: func(r *Run) error {
			r.StartDataNodes()
			r.StartMapReduce(r.Workers[:r.Size(32, 8)], 8)

			maps, reducers, stragglers := r.Size(8, 4), r.Size(8, 4), r.Size(2, 1)
			input := "/data/mr-input"
			ctx := r.Admin.NewRequest()
			if err := r.AdminFS.CreateMetadataOnly(ctx, input, float64(maps)*hdfs.BlockSize); err != nil {
				return err
			}

			qIO := r.Query(qReduceIO)
			qDone := r.Query(qReduceDone)

			submitter := r.C.Start("master", "JobClient")
			err := r.MR.Submit(submitter.NewRequest(), submitter, mapreduce.JobConfig{
				Name:            "sort",
				Input:           input,
				Reducers:        reducers,
				Stragglers:      stragglers,
				StragglerFactor: 6,
			})
			r.AddRequests(1)
			r.Expect("job-completes", err)

			r.Await("stragglers-dominate", qIO, 2, func(rows []tuple.Tuple) error {
				io := groupVals(rows)
				if len(io) < 2 {
					return fmt.Errorf("only %d reduce hosts reported", len(io))
				}
				_, max := maxVal(io)
				if min := minVal(io); max < 3*min {
					return fmt.Errorf("max reduce IO %v < 3x min %v", max, min)
				}
				return nil
			})
			r.AwaitTotal("reducers-complete", qDone, float64(reducers))
			return nil
		},
	}
}

// ---- 4. cascading failover --------------------------------------------

// CascadingFailover drains two RegionServers in sequence under load; the
// per-host GROUP BY shows each one's counts freezing while its key range
// reappears on the next live server, with zero client errors.
func CascadingFailover() *Scenario {
	return &Scenario{
		ID:          "failover",
		Name:        "Cascading failover",
		Description: "two RegionServers drain back-to-back; load reroutes, zero errors",
		Interval:    500 * time.Millisecond,
		Horizon:     12 * time.Second,
		Run: func(r *Run) error {
			r.StartDataNodes()
			nRS := r.Size(48, 12)
			servers := r.StartHBase(r.Workers[:nRS], 0)
			if err := r.InitHBaseStores(8e6); err != nil {
				return err
			}

			rows := make([]string, 4*nRS)
			for i := range rows {
				rows[i] = fmt.Sprintf("key-%05d", i)
			}

			q := r.Query(qRSCount)

			clients, hbc := r.HBaseClients(r.Size(160, 24))
			join := r.DriveAsync(clients, 120, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(10+rng.Intn(10)) * time.Millisecond)
				return hbc[i].Get(ctx, rows[rng.Intn(len(rows))], 8e3)
			})

			r.Await("pre-fault-coverage", q, 3, func(rowsT []tuple.Tuple) error {
				if n := len(rowsT); n < 2*nRS/3 {
					return fmt.Errorf("only %d of %d RegionServers reporting", n, nRS)
				}
				return nil
			})

			// For each victim, a row it currently owns, to verify rerouting.
			victims := [2]struct{ host, row string }{
				{host: servers[0].Proc.Info.Host},
				{host: servers[1].Proc.Info.Host},
			}
			for _, row := range rows {
				for v := range victims {
					if victims[v].row == "" && r.HB.HostFor(row) == victims[v].host {
						victims[v].row = row
					}
				}
			}

			for v := range victims {
				vic := victims[v]
				r.C.FlushAgents()
				snap := groupVals(q.Rows())
				servers[v].SetDraining(true)
				r.Logf("  fault: draining %s at t=%s", vic.host, r.Env.Now())
				name := fmt.Sprintf("failover-%d-freezes", v+1)
				r.Await(name, q, 3, func(rowsT []tuple.Tuple) error {
					g := growth(groupVals(rowsT), snap)
					frozen := g[vic.host]
					if grown := sumVals(g); frozen > 8 || grown < 200 {
						return fmt.Errorf("drained %s grew %v of total growth %v", vic.host, frozen, grown)
					}
					return nil
				})
				if vic.row != "" {
					now := r.HB.HostFor(vic.row)
					var err error
					if now == vic.host || now == "" {
						err = fmt.Errorf("row %s still routed to drained %s", vic.row, now)
					}
					r.Expect(fmt.Sprintf("failover-%d-reroutes", v+1), err)
				}
			}

			join()
			r.ExpectNoClientErrors("zero-client-errors")
			r.AwaitTotal("gets-conserved", q, float64(r.Requests()))
			return nil
		},
	}
}

// ---- 5. rebalancing storm ---------------------------------------------

// RebalancingStorm rotates the row-to-server routing repeatedly under
// load (a region rebalance storm), then settles on a shifted assignment;
// the GROUP BY shows load spreading across nearly every server.
func RebalancingStorm() *Scenario {
	return &Scenario{
		ID:          "rebalance",
		Name:        "Rebalancing storm",
		Description: "routing rotates every 400ms under load, then settles shifted",
		Interval:    500 * time.Millisecond,
		Horizon:     10 * time.Second,
		Run: func(r *Run) error {
			r.StartDataNodes()
			nRS := r.Size(40, 10)
			r.StartHBase(r.Workers[:nRS], 0)
			if err := r.InitHBaseStores(8e6); err != nil {
				return err
			}

			rows := make([]string, 4*nRS)
			for i := range rows {
				rows[i] = fmt.Sprintf("key-%05d", i)
			}

			q := r.Query(qRSCount)

			clients, hbc := r.HBaseClients(r.Size(128, 24))
			join := r.DriveAsync(clients, 140, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(8+rng.Intn(8)) * time.Millisecond)
				return hbc[i].Get(ctx, rows[rng.Intn(len(rows))], 8e3)
			})

			probe := rows[0]
			preHost := r.HB.HostFor(probe)
			r.SettleTo(800 * time.Millisecond)
			r.C.FlushAgents()
			snap := groupVals(q.Rows())

			// The storm: rotate every row's owner four times, 400ms apart,
			// ending on a fixed shifted assignment.
			for k := 1; k <= 4; k++ {
				shift := k * 7
				r.HB.SetRouting(func(row string, n int) int {
					return (defaultRouteHash(row) + shift) % n
				})
				r.Logf("  rebalance: shift=%d at t=%s", shift, r.Env.Now())
				r.Env.Sleep(400 * time.Millisecond)
			}

			r.Await("storm-spreads-load", q, 3, func(rowsT []tuple.Tuple) error {
				g := growth(groupVals(rowsT), snap)
				grew := 0
				for _, v := range g {
					if v > 0 {
						grew++
					}
				}
				if grew < 3*nRS/4 {
					return fmt.Errorf("only %d of %d servers grew during the storm", grew, nRS)
				}
				return nil
			})

			var moved error
			if now := r.HB.HostFor(probe); now == "" || now == preHost {
				moved = fmt.Errorf("probe row %s still on %s", probe, preHost)
			}
			r.Expect("routing-shifted", moved)

			join()
			r.AwaitTotal("gets-conserved", q, float64(r.Requests()))
			return nil
		},
	}
}

// defaultRouteHash mirrors hbase's row hash so shifted routing stays a
// deterministic rotation of the default assignment.
func defaultRouteHash(row string) int {
	h := 0
	for _, c := range row {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h
}

// ---- 6. thundering herd -----------------------------------------------

const qNNOpen = `From o In NN.Open
GroupBy o.host
Select o.host, COUNT`

const qNNRename = `From o In NN.Rename
GroupBy o.host
Select o.host, COUNT`

// ThunderingHerd slams the NameNode with over a thousand clients issuing
// metadata operations back to back — the scale carrier: a million-plus
// requests through one process, with exact op conservation at the end.
func ThunderingHerd() *Scenario {
	return &Scenario{
		ID:          "herd",
		Name:        "Thundering herd",
		Description: "1000+ clients hammer the NameNode; exact op conservation",
		Interval:    100 * time.Millisecond,
		Horizon:     20 * time.Second,
		Run: func(r *Run) error {
			r.StartDataNodes()
			nClients, ops := r.Size(1152, 96), r.Size(880, 120)

			// Each client owns a private file it opens and renames, so
			// concurrent renames never invalidate another client's ops:
			// paths[i] holds its two names.
			ctx := r.Admin.NewRequest()
			paths := make([][2]string, nClients)
			for i := range paths {
				a := fmt.Sprintf("/priv/c%04d", i)
				paths[i] = [2]string{a, a + "x"}
				if err := r.AdminFS.CreateMetadataOnly(ctx, a, 1e3); err != nil {
					return err
				}
			}

			qOpen := r.Query(qNNOpen)
			qRen := r.Query(qNNRename)

			clients, fs := r.HDFSClients(nClients)
			// Every 10th op renames the private file back and forth; the
			// rest open it under whichever name it currently has. Totals
			// are exact functions of (nClients, ops).
			join := r.DriveAsync(clients, ops, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				// k/10 renames have completed before op k (they happen at
				// k%10 == 9), so the file is at its second name after an
				// odd number.
				cur, other := paths[i][0], paths[i][1]
				if (k/10)%2 == 1 {
					cur, other = other, cur
				}
				if k%10 == 9 {
					return fs[i].Rename(ctx, cur, other)
				}
				return fs[i].Open(ctx, cur)
			})

			wantRenames := float64(nClients * (ops / 10))
			wantOpens := float64(nClients*ops) - wantRenames

			// The herd must be visibly underway early; /20 (not a higher
			// fraction) because the single NameNode's throughput bounds
			// how many of the million-plus ops can have completed within
			// the first second.
			r.Await("herd-observed", qOpen, 10, func(rows []tuple.Tuple) error {
				if got := total(rows); got < wantOpens/20 {
					return fmt.Errorf("only %v opens observed", got)
				}
				return nil
			})

			join()
			r.ExpectNoClientErrors("zero-client-errors")
			r.AwaitTotal("opens-conserved", qOpen, wantOpens)
			r.AwaitTotal("renames-conserved", qRen, wantRenames)
			return nil
		},
	}
}

// ---- 7. multi-tenant storm --------------------------------------------

// MultiTenantStorm stands up dozens of tenant frontends over one cluster
// behind a rack-granularity combiner tree with tenant routing: every
// tenant installs its own query under a fair-share budget split, results
// arrive on per-tenant topics with exact isolation and conservation, one
// tenant is torn down and replaced mid-storm, and the per-frontend
// inbound frame load stays flat — the tree, not the tenant count or the
// host count, determines what each frontend reads off the bus.
func MultiTenantStorm() *Scenario {
	return &Scenario{
		ID:           "multi-tenant-storm",
		Name:         "Multi-tenant storm",
		Description:  "64 tenant frontends over a combiner tree; isolation, churn, flat per-frontend load",
		Interval:     500 * time.Millisecond,
		Horizon:      12 * time.Second,
		CombinerTree: true,
		Run: func(r *Run) error {
			r.StartDataNodes()
			const readSize = 64e3
			files := r.Dataset("/data/f%06d", len(r.Workers), readSize)

			nTenants := r.Size(64, 8)
			// Half the tenants count DataNode ops, half sum bytes read:
			// distinct answers per tenant make cross-tenant leakage (a
			// report merged into the wrong frontend) break an exact
			// conservation checkpoint instead of passing silently.
			type tenantRun struct {
				fe    *core.PivotTracing
				q     *core.Installed
				bytes bool
			}
			tenants := make([]*tenantRun, nTenants)
			var installErr error
			for i := range tenants {
				tr := &tenantRun{
					fe:    r.C.NewTenantFrontend(fmt.Sprintf("t%02d", i), nTenants),
					bytes: i%2 == 1,
				}
				text := qDNCount
				if tr.bytes {
					text = qDNBytes
				}
				q, err := tr.fe.Install(text)
				if err != nil && installErr == nil {
					installErr = fmt.Errorf("tenant %d install: %w", i, err)
				}
				tr.q = q
				tenants[i] = tr
			}
			r.Expect("tenants-installed", installErr)
			qPrim := r.Query(qDNCount)

			clients, fs := r.HDFSClients(r.Size(128, 16))
			join := r.DriveAsync(clients, 60, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
				return fs[i].Read(ctx, files[rng.Intn(len(files))], 0, readSize)
			})

			r.Await("storm-observed", tenants[1].q, 4, func(rows []tuple.Tuple) error {
				if total(rows) <= 0 {
					return fmt.Errorf("tenant t01 has no rows yet")
				}
				return nil
			})

			// Churn: tenant 0's frontend is torn down mid-storm (its lease
			// renewals stop; its handle freezes) and a replacement tenant
			// joins, installs afresh, and starts seeing post-install load.
			r.C.DropTenantFrontend(tenants[0].fe)
			reFE := r.C.NewTenantFrontend("t00r", nTenants)
			reQ, reErr := reFE.Install(qDNCount)
			r.Expect("churned-tenant-reinstalls", reErr)
			r.Await("churned-tenant-rejoins", reQ, 4, func(rows []tuple.Tuple) error {
				if total(rows) <= 0 {
					return fmt.Errorf("replacement tenant has no rows yet")
				}
				return nil
			})

			join()
			reads := float64(r.Requests())
			r.AwaitTotal("primary-conserved", qPrim, reads)

			// Exact per-tenant isolation: every surviving tenant's answer
			// is exactly its own query over the full load — no missing
			// frames (a routing gap) and no foreign rows (a leak). Tenant
			// 0 is excluded: its handle froze at teardown.
			var isoErr error
			for i, tr := range tenants[1:] {
				want := reads
				if tr.bytes {
					want = reads * readSize
				}
				if got := total(tr.q.Rows()); got != want {
					isoErr = fmt.Errorf("tenant t%02d: %v != %v", i+1, got, want)
					break
				}
			}
			r.Expect("tenant-isolation-exact", isoErr)

			// Flat per-frontend load: every long-lived tenant frontend read
			// the same order of frames off the bus — its own per-interval
			// tree output plus the shared results feed — regardless of how
			// many hosts are reporting underneath the tree.
			var loF, hiF int64 = -1, -1
			for _, tr := range tenants[1:] {
				f := tr.fe.FramesIn()
				if loF < 0 || f < loF {
					loF = f
				}
				if f > hiF {
					hiF = f
				}
			}
			var flatErr error
			if loF <= 0 || hiF > 2*loF {
				flatErr = fmt.Errorf("per-frontend frames in [%d, %d] spread beyond 2x", loF, hiF)
			}
			r.Expect("per-frontend-load-flat", flatErr)
			secs := r.Env.Now().Seconds()
			r.Logf("  load: %d hosts, %d tenants, per-frontend frames in [%d, %d] over %.1fs virtual (max %.1f frames/s)",
				len(r.Workers), nTenants, loF, hiF, secs, float64(hiF)/secs)

			// The primary's status view aggregates every tenant's quota
			// usage from the agents' TenantUsage heartbeats.
			st := r.C.PT.StatusAt(r.Env.Now())
			var usageErr error
			if len(st.Tenants) < nTenants {
				usageErr = fmt.Errorf("status shows %d tenants, want >= %d", len(st.Tenants), nTenants)
			}
			r.Expect("tenant-usage-visible", usageErr)
			return nil
		},
	}
}

// ---- 8. rolling restarts ----------------------------------------------

// RollingRestarts cycles workers through restart windows (DataNode
// offline + NodeManager draining) under HDFS read load and a stream of
// MapReduce jobs; replica fallback and pipeline recovery keep client
// errors at zero.
func RollingRestarts() *Scenario {
	return &Scenario{
		ID:          "rolling",
		Name:        "Rolling restarts",
		Description: "workers restart one by one; fallback paths keep errors at zero",
		Interval:    200 * time.Millisecond,
		Horizon:     20 * time.Second,
		Run: func(r *Run) error {
			r.StartDataNodes()
			nNM, nRestart := r.Size(24, 8), r.Size(8, 4)
			nms := r.StartMapReduce(r.Workers[:nNM], 8)

			const readSize = 64e3
			files := r.Dataset("/data/f%06d", len(r.Workers), readSize)
			input := "/data/mr-input"
			adminCtx := r.Admin.NewRequest()
			if err := r.AdminFS.CreateMetadataOnly(adminCtx, input, 2*hdfs.BlockSize); err != nil {
				return err
			}

			qDN := r.Query(qDNCount)
			qJob := r.Query(`From j In JobComplete
GroupBy j.id
Select j.id, COUNT`)

			clients, fs := r.HDFSClients(r.Size(96, 24))
			join := r.DriveAsync(clients, 100, func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(8+rng.Intn(8)) * time.Millisecond)
				return fs[i].Read(ctx, files[rng.Intn(len(files))], 0, readSize)
			})

			// Job stream in the background (sequential, small jobs).
			jobs := r.Size(3, 2)
			submitter := r.C.Start("master", "JobClient")
			var jobErr error
			jobsDone := r.Env.NewWaitGroup()
			jobsDone.Add(1)
			r.Env.Go(func() {
				defer jobsDone.Done()
				for j := 0; j < jobs; j++ {
					err := r.MR.Submit(submitter.NewRequest(), submitter, mapreduce.JobConfig{
						Name:            fmt.Sprintf("etl%d", j),
						Input:           input,
						Reducers:        2,
						MapOutputFactor: 0.1,
						OutputFactor:    0.1,
					})
					r.AddRequests(1)
					if err != nil && jobErr == nil {
						jobErr = err
					}
				}
			})

			// Rolling restarts: DataNodes on a range disjoint from the NM
			// hosts, NodeManagers from the tail of the NM range.
			restartBase := nNM + r.Size(16, 4)
			for w := 0; w < nRestart; w++ {
				dn := r.DNs[restartBase+w]
				nm := nms[nNM-1-(w%nNM)]
				dnHost := dn.Proc.Info.Host
				r.C.FlushAgents()
				snap := groupVals(qDN.Rows())
				dn.SetOffline(true)
				nm.SetDraining(true)
				r.Logf("  restart window: DN %s offline, NM %s draining at t=%s",
					dnHost, nm.Proc.Info.Host, r.Env.Now())
				if w == 0 {
					r.Await("offline-dn-freezes", qDN, 3, func(rows []tuple.Tuple) error {
						g := growth(groupVals(rows), snap)
						if frozen, grown := g[dnHost], sumVals(g); frozen > 2 || grown < 50 {
							return fmt.Errorf("offline %s grew %v of %v", dnHost, frozen, grown)
						}
						return nil
					})
					// The RM must place around the draining node even when
					// it is the preferred host.
					cont, err := yarn.Allocate(submitter.NewRequest(), submitter, r.RM, "probe", nm.Proc.Info.Host)
					if err == nil && cont.Host == nm.Proc.Info.Host {
						err = fmt.Errorf("container granted on draining %s", cont.Host)
					}
					if err == nil {
						cont.Release()
					}
					r.Expect("rm-avoids-draining", err)
				} else {
					r.Env.Sleep(500 * time.Millisecond)
				}
				dn.SetOffline(false)
				nm.SetDraining(false)
				r.Env.Sleep(100 * time.Millisecond)
			}

			// Recovery probe: the first restarted DataNode serves again.
			r.C.FlushAgents()
			snap := groupVals(qDN.Rows())
			probeDN := r.DNs[restartBase]
			probeHost := probeDN.Proc.Info.Host
			probeCtx := clients[0].NewRequest()
			for i := 0; i < 5; i++ {
				if _, err := clients[0].Call(probeCtx, probeDN.Proc, "DataTransferProtocol.ReadBlock",
					hdfs.ReadBlockReq{Block: "probe", Length: readSize, DestHost: clients[0].Info.Host},
					cluster.Sizes{Request: 200, Response: 64}); err != nil {
					return fmt.Errorf("recovery probe: %w", err)
				}
				r.AddRequests(1)
			}
			r.Await("restarted-dn-recovers", qDN, 2, func(rows []tuple.Tuple) error {
				g := growth(groupVals(rows), snap)
				if g[probeHost] < 5 {
					return fmt.Errorf("restarted %s served %v probe reads", probeHost, g[probeHost])
				}
				return nil
			})

			join()
			jobsDone.Wait()
			r.ExpectNoClientErrors("zero-client-errors")
			r.Expect("jobs-complete", jobErr)
			r.AwaitTotal("jobs-observed", qJob, float64(jobs))
			return nil
		},
	}
}

// ---- 9. sampling storm ------------------------------------------------

const qStormOps = `From o In Storm.Op
GroupBy o.key
Select o.key, COUNT, SUM(o.val)`

const qStormOpsSampled = qStormOps + `
Sample 0.05`

// qStormSqueeze exists purely to generate baggage-budget pressure: the
// happened-before join packs per-key Storm.Op groups, and under a
// MaxTuples budget of 1 nearly every pack evicts — the drop stream that
// drives the agents' adaptive sampling controllers into backoff.
const qStormSqueeze = `From d In Storm.Done
Join o In Storm.Op On o -> d
GroupBy o.key
Select o.key, COUNT`

// SamplingStorm runs a thundering herd of monitored request generators
// under an exact query and its Sample 0.05 twin, then squeezes the
// baggage budget mid-run: the adaptive controllers back the effective
// rate off toward the floor, and releasing the squeeze restores it.
// Checkpoints pin the statistical contract (weighted estimate within a
// 5-sigma relative-error bound of the exact answer, drop accounting
// reconciling kept + suppressed to requests issued) and the exactness
// flag flip (exact rows exact, sampled rows flagged approximate).
func SamplingStorm() *Scenario {
	return &Scenario{
		ID:           "sampling-storm",
		Name:         "Sampling storm",
		Description:  "herd at rate 0.05; budget squeeze backs the rate off, release restores it",
		Interval:     500 * time.Millisecond,
		Horizon:      20 * time.Second,
		CombinerTree: true,
		Run: func(r *Run) error {
			hosts := r.Workers
			nGen := r.Size(384, 32)
			const (
				ops1, ops2 = 75, 60 // requests per generator in phases 1 and 2
				rate       = 0.05
				baseMilli  = 50 // rate in thousandths, as agents gauge it
				firesPerOp = 6  // Storm.Op crossings per request
				nKeys      = 8
			)
			// The Storm.Op keys, formatted and boxed once.
			var keys [nKeys]any
			for j := range keys {
				keys[j] = fmt.Sprintf("k%02d", j)
			}
			// The generators are MONITORED processes: the sampling decision
			// is minted by the agent of the process that originates the
			// request, so unmonitored client procs (StartClients) would run
			// every request down the exact path.
			gens := make([]*cluster.Process, nGen)
			opTPs := make([]*tracepoint.Tracepoint, nGen)
			doneTPs := make([]*tracepoint.Tracepoint, nGen)
			for i := range gens {
				p := r.C.Start(hosts[i%len(hosts)], fmt.Sprintf("Storm%02d", i/len(hosts)))
				gens[i] = p
				opTPs[i] = p.Define("Storm.Op", "key", "val")
				doneTPs[i] = p.Define("Storm.Done", "n")
			}
			stormRates := func() (lo, hi int64) {
				lo, hi = -1, -1
				for _, p := range gens {
					m := p.Agent.Stats().SampleRateMilli
					if lo < 0 || m < lo {
						lo = m
					}
					if m > hi {
						hi = m
					}
				}
				return
			}
			suppressed := func() int64 {
				var n int64
				for _, p := range gens {
					n += p.Agent.Stats().SampledOut
				}
				return n
			}

			qExact := r.Query(qStormOps)
			qSampled := r.Query(qStormOpsSampled)
			// count sums the COUNT column of qStormOps' rows; over the
			// sampled twin it is the weighted Horvitz-Thompson estimate.
			count := func(rows []tuple.Tuple) (n float64) {
				for _, row := range rows {
					n += row[1].Float()
				}
				return n
			}
			awaitExactCount := func(name string, want float64) {
				r.Await(name, qExact, 1, func(rows []tuple.Tuple) error {
					if got := count(rows); got != want {
						return fmt.Errorf("exact COUNT %v != %v fired", got, want)
					}
					return nil
				})
			}

			stormOp := func(i, k int, ctx context.Context, p *cluster.Process, rng *rand.Rand) error {
				r.Env.Sleep(time.Duration(20+rng.Intn(16)) * time.Millisecond)
				for f := 0; f < firesPerOp; f++ {
					opTPs[i].Here(ctx, keys[rng.Intn(nKeys)], int64(1+rng.Intn(9)))
				}
				doneTPs[i].Here(ctx, int64(firesPerOp))
				return nil
			}

			// Phase 1: the herd at a steady effective rate (no pressure
			// source exists yet, so the controllers sit at the base).
			join := r.DriveAsync(gens, ops1, stormOp)
			want1 := float64(nGen * ops1 * firesPerOp)
			r.Await("storm-observed", qExact, 4, func(rows []tuple.Tuple) error {
				if got := count(rows); got < want1/20 {
					return fmt.Errorf("only %v exact ops observed", got)
				}
				return nil
			})
			join()
			requests1 := float64(nGen * ops1)

			awaitExactCount("exact-conserved-p1", want1)
			// Every phase-1 request was minted at the fixed base rate, so
			// the weighted COUNT is a Horvitz-Thompson estimate whose
			// relative error concentrates within 5 sigma of the binomial
			// request-count estimate (the 6 tuples of one request share its
			// keep/suppress verdict, so they add no independent variance).
			errBound := 5 * math.Sqrt((1-rate)/(requests1*rate))
			var est1 float64
			r.Await("estimate-within-bound", qSampled, 1, func(rows []tuple.Tuple) error {
				est1 = count(rows)
				relErr := math.Abs(est1-want1) / want1
				if est1 <= 0 || relErr > errBound {
					return fmt.Errorf("sampled estimate %v vs exact %v: relative error %.3f > bound %.3f",
						est1, want1, relErr, errBound)
				}
				return nil
			})

			// Drop accounting reconciles: suppression is all-or-nothing per
			// request (firesPerOp crossings at a time), and kept requests —
			// recovered from the weighted estimate at the known fixed rate —
			// plus suppressed requests account for every request issued.
			sup1 := suppressed()
			var recErr error
			kept := math.Round(est1 * rate / firesPerOp)
			switch {
			case sup1%firesPerOp != 0:
				recErr = fmt.Errorf("%d suppressed crossings not divisible by %d per request", sup1, firesPerOp)
			case kept+float64(sup1/firesPerOp) != requests1:
				recErr = fmt.Errorf("kept %v + suppressed %d != %v requests", kept, sup1/firesPerOp, requests1)
			}
			r.Expect("drops-reconcile", recErr)

			// Exactness flags flip: the exact query's groups stay exact, the
			// sampled twin's are all flagged approximate.
			var flagErr error
			exGroups, saGroups := qExact.Groups(), qSampled.Groups()
			if len(exGroups) == 0 || len(saGroups) == 0 {
				flagErr = fmt.Errorf("no groups to check (%d exact, %d sampled)", len(exGroups), len(saGroups))
			}
			for _, g := range exGroups {
				for i := range g.States {
					if !g.States[i].Exact() {
						flagErr = fmt.Errorf("exact query group %q flagged approximate", g.Key)
					}
				}
			}
			for _, g := range saGroups {
				for i := range g.States {
					if g.States[i].Exact() {
						flagErr = fmt.Errorf("sampled query group %q not flagged approximate", g.Key)
					}
				}
			}
			r.Expect("flags-flip", flagErr)

			// Phase 2: the budget squeeze. More herd load runs while the
			// squeeze query's evictions feed the pressure signal.
			squeeze, sqErr := r.C.PT.InstallNamed("", qStormSqueeze, plan.Options{
				Optimize: true,
				Safety:   advice.Safety{Budget: baggage.Budget{MaxTuples: 1}},
			})
			r.Expect("squeeze-installs", sqErr)
			join2 := r.DriveAsync(gens, ops2, stormOp)

			// Requiring < baseMilli/2 demands at least two halvings, so the
			// restore leg below exercises more than a single doubling.
			backedOff := int64(-1)
			for i := 0; i < 8 && backedOff < 0; i++ {
				r.sleepToNextInterval()
				if lo, _ := stormRates(); lo < baseMilli/2 {
					backedOff = lo
				}
			}
			var boErr error
			if backedOff < 0 {
				boErr = fmt.Errorf("no generator backed off below %d milli under budget pressure", baseMilli/2)
			}
			r.Expect("rate-backs-off", boErr)
			r.Logf("  squeeze: min effective rate %d milli at t=%s", backedOff, r.Env.Now())

			// Release: uninstalling the squeeze stops the drop stream, and
			// idle ticks double every controller back to the base.
			squeeze.Uninstall()
			join2()
			restored := false
			for i := 0; i < 14 && !restored; i++ {
				r.sleepToNextInterval()
				lo, hi := stormRates()
				restored = lo == baseMilli && hi == baseMilli
			}
			var resErr error
			if !restored {
				lo, hi := stormRates()
				resErr = fmt.Errorf("rates stuck in [%d, %d] milli after squeeze release, want %d", lo, hi, baseMilli)
			}
			r.Expect("rate-restores", resErr)

			awaitExactCount("exact-conserved-final", want1+float64(nGen*ops2*firesPerOp))
			return nil
		},
	}
}
