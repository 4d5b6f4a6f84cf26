// Package workload implements the paper's testbed and client applications:
// the eight-machine Hadoop stack deployment (§2, §6) and the closed-loop
// workloads FSread4m, FSread64m, Hget, Hscan, MRsort10g/100g, the §6.1
// StressTest clients, and the NNBench-derived Read8k/Open/Create/Rename
// stress operations of Table 5.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/yarn"
)

// TestbedConfig sizes a deployment.
type TestbedConfig struct {
	Hosts      int // worker hosts (default 8)
	Cluster    cluster.Config
	NameNode   hdfs.Config
	HDFSClient hdfs.ClientConfig
	HBase      bool
	MapReduce  bool
}

// DefaultTestbedConfig mirrors the paper's cluster: 8 worker machines with
// 1 Gbit NICs, plus a master host.
func DefaultTestbedConfig() TestbedConfig {
	return TestbedConfig{
		Hosts:     8,
		Cluster:   cluster.DefaultConfig(),
		NameNode:  hdfs.DefaultConfig(),
		HBase:     true,
		MapReduce: true,
	}
}

// Testbed is an assembled deployment.
type Testbed struct {
	C     *cluster.Cluster
	Cfg   TestbedConfig
	Hosts []string // worker host names, "host-A".."host-H"

	NN  *hdfs.NameNode
	DNs []*hdfs.DataNode
	HB  *hbase.HBase
	RSs []*hbase.RegionServer
	RM  *yarn.ResourceManager
	NMs []*yarn.NodeManager
	MR  *mapreduce.Framework

	adminProc *cluster.Process
	AdminFS   *hdfs.Client
}

// HostName returns the i-th worker host name ("host-A" for 0).
func HostName(i int) string { return fmt.Sprintf("host-%c", 'A'+i) }

// NewTestbed assembles the deployment on a fresh cluster.
func NewTestbed(env *simtime.Env, cfg TestbedConfig) *Testbed {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 8
	}
	c := cluster.New(env, cfg.Cluster)
	tb := &Testbed{C: c, Cfg: cfg}

	tb.NN = hdfs.NewNameNode(c, "master", cfg.NameNode)
	for i := 0; i < cfg.Hosts; i++ {
		host := HostName(i)
		tb.Hosts = append(tb.Hosts, host)
		tb.DNs = append(tb.DNs, hdfs.NewDataNode(c, host, tb.NN))
	}
	tb.adminProc = c.Start("master", "admin")
	tb.AdminFS = hdfs.NewClient(tb.adminProc, tb.NN, cfg.HDFSClient)

	if cfg.HBase {
		tb.HB = hbase.New(c, "master", hbase.Config{Regions: 4 * cfg.Hosts})
		for _, host := range tb.Hosts {
			tb.RSs = append(tb.RSs, tb.HB.AddRegionServer(c, host, tb.NN, cfg.HDFSClient))
		}
	}
	if cfg.MapReduce {
		tb.RM = yarn.NewResourceManager(c, "master")
		for _, host := range tb.Hosts {
			tb.NMs = append(tb.NMs, yarn.NewNodeManager(c, host, tb.RM, 0))
		}
		tb.MR = mapreduce.New(c, tb.RM, tb.NN, cfg.HDFSClient)
	}
	return tb
}

// InitHBaseStores registers the HBase region store files.
func (tb *Testbed) InitHBaseStores(storeSize float64) error {
	return tb.HB.InitStoreFiles(tb.adminProc.NewRequest(), tb.AdminFS, storeSize)
}

// Workload is one closed-loop client application.
type Workload struct {
	Name string
	Proc *cluster.Process
	Rec  *metrics.LatencyRecorder

	// Prepare, if set, runs on each fresh request context before the
	// operation — the Table 5 overhead experiment uses it to pre-pack
	// tuples into the request baggage.
	Prepare func(ctx context.Context)

	// Err records the error that terminated the closed loop, if any.
	Err error

	think time.Duration
	op    func(ctx context.Context, i int) error
}

// Start launches the closed loop: op, record latency, optional think
// time, repeat until the simulation ends. Errors terminate the loop.
func (w *Workload) Start() {
	env := w.Proc.C.Env
	env.Go(func() {
		for i := 0; !env.Done(); i++ {
			if err := w.RunOnce(i); err != nil {
				w.Err = err
				return
			}
			if w.think > 0 {
				env.Sleep(w.think)
			}
		}
	})
}

// SetThink sets the closed-loop think time between operations.
func (w *Workload) SetThink(d time.Duration) { w.think = d }

// RunOnce executes a single operation synchronously on a fresh request
// and records its latency; Start's closed loop is built from it.
func (w *Workload) RunOnce(i int) error {
	env := w.Proc.C.Env
	start := env.Now()
	ctx := w.Proc.NewRequest()
	if w.Prepare != nil {
		w.Prepare(ctx)
	}
	if err := w.op(ctx, i); err != nil {
		return err
	}
	w.Rec.Record(env.Now(), env.Now()-start)
	return nil
}

func (tb *Testbed) newWorkload(host, name string, think time.Duration, op func(ctx context.Context, i int) error) *Workload {
	return &Workload{
		Name:  name,
		Proc:  tb.C.Start(host, name),
		Rec:   metrics.NewLatencyRecorder(),
		think: think,
		op:    op,
	}
}

// NewFSRead builds the FSread4m / FSread64m workloads: closed-loop random
// reads of readSize from a private dataset of fileCount files.
func (tb *Testbed) NewFSRead(host, name string, readSize float64, fileCount int, seed int64) (*Workload, error) {
	w := tb.newWorkload(host, name, 0, nil)
	fs := hdfs.NewClient(w.Proc, tb.NN, tb.Cfg.HDFSClient)
	rng := rand.New(rand.NewSource(seed))
	files := make([]string, fileCount)
	ctx := w.Proc.NewRequest()
	for i := range files {
		files[i] = fmt.Sprintf("/data/%s/f%04d", name, i)
		if err := fs.CreateMetadataOnly(ctx, files[i], readSize); err != nil {
			return nil, err
		}
	}
	w.op = func(ctx context.Context, i int) error {
		return fs.Read(ctx, files[rng.Intn(len(files))], 0, readSize)
	}
	return w, nil
}

// NewHGet builds the Hget workload: closed-loop 10 kB row lookups.
func (tb *Testbed) NewHGet(host string, seed int64) *Workload {
	w := tb.newWorkload(host, "HGET", 0, nil)
	hc := hbase.NewClient(w.Proc, tb.HB)
	rng := rand.New(rand.NewSource(seed))
	w.op = func(ctx context.Context, i int) error {
		return hc.Get(ctx, fmt.Sprintf("row-%08d", rng.Intn(1<<20)), 10e3)
	}
	return w
}

// NewHScan builds the Hscan workload: closed-loop 4 MB table scans.
func (tb *Testbed) NewHScan(host string, seed int64) *Workload {
	w := tb.newWorkload(host, "HSCAN", 0, nil)
	hc := hbase.NewClient(w.Proc, tb.HB)
	rng := rand.New(rand.NewSource(seed))
	w.op = func(ctx context.Context, i int) error {
		return hc.Scan(ctx, fmt.Sprintf("row-%08d", rng.Intn(1<<20)), 4e6)
	}
	return w
}

// NewMRSort builds the MRsort workloads: repeatedly sort inputGB of data.
func (tb *Testbed) NewMRSort(host, name string, inputBytes float64) (*Workload, error) {
	w := tb.newWorkload(host, name, 0, nil)
	input := "/data/" + name + "/input"
	if err := tb.AdminFS.CreateMetadataOnly(tb.adminProc.NewRequest(), input, inputBytes); err != nil {
		return nil, err
	}
	w.op = func(ctx context.Context, i int) error {
		return tb.MR.Submit(ctx, w.Proc, mapreduce.JobConfig{Name: name, Input: input})
	}
	return w, nil
}

// StressDataset pre-creates the §6.1 shared dataset: fileCount files of
// fileSize bytes with the configured replication.
func (tb *Testbed) StressDataset(fileCount int, fileSize float64) ([]string, error) {
	files := make([]string, fileCount)
	ctx := tb.adminProc.NewRequest()
	for i := range files {
		files[i] = fmt.Sprintf("/stress/f%05d", i)
		if err := tb.AdminFS.CreateMetadataOnly(ctx, files[i], fileSize); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// NewStressTest builds one §6.1 StressTest client on a host: closed-loop
// random 8 kB reads from the shared dataset, crossing the
// StressTest.DoNextOp tracepoint.
func (tb *Testbed) NewStressTest(host string, id int, files []string, think time.Duration, seed int64) *Workload {
	name := "StressTest"
	if id > 0 {
		name = fmt.Sprintf("StressTest-%d", id)
	}
	w := tb.newWorkload(host, name, think, nil)
	fs := hdfs.NewClient(w.Proc, tb.NN, tb.Cfg.HDFSClient)
	tpNext := w.Proc.Define("StressTest.DoNextOp", "op")
	rng := rand.New(rand.NewSource(seed))
	w.op = func(ctx context.Context, i int) error {
		tpNext.Here(ctx, "read8k")
		f := files[rng.Intn(len(files))]
		offset := float64(rng.Intn(int(hdfs.BlockSize - 8e3)))
		return fs.Read(ctx, f, offset, 8e3)
	}
	return w
}

// NNBench-derived operations for the Table 5 overhead stress test.
const (
	OpRead8k = "Read8k"
	OpOpen   = "Open"
	OpCreate = "Create"
	OpRename = "Rename"
)

// NewNNBench builds one Table 5 stress workload performing the named
// operation in a closed loop.
func (tb *Testbed) NewNNBench(host, op string, seed int64) (*Workload, error) {
	w := tb.newWorkload(host, fmt.Sprintf("NNBench-%s-%d", op, seed), 0, nil)
	fs := hdfs.NewClient(w.Proc, tb.NN, tb.Cfg.HDFSClient)
	// §6.3 derives these stress clients from NNBench; like the §6.1
	// stress test they cross DoNextOp, so the §6.1 queries observe them.
	tpNext := w.Proc.Define("StressTest.DoNextOp", "op")
	rng := rand.New(rand.NewSource(seed))
	base := fmt.Sprintf("/bench/%s/%s", host, op)
	ctx := w.Proc.NewRequest()
	// Seed files for read/open/rename.
	for i := 0; i < 16; i++ {
		if err := fs.CreateMetadataOnly(ctx, fmt.Sprintf("%s/f%02d", base, i), 8e3); err != nil {
			return nil, err
		}
	}
	switch op {
	case OpRead8k:
		w.op = func(ctx context.Context, i int) error {
			tpNext.Here(ctx, op)
			return fs.Read(ctx, fmt.Sprintf("%s/f%02d", base, rng.Intn(16)), 0, 8e3)
		}
	case OpOpen:
		w.op = func(ctx context.Context, i int) error {
			tpNext.Here(ctx, op)
			return fs.Open(ctx, fmt.Sprintf("%s/f%02d", base, rng.Intn(16)))
		}
	case OpCreate:
		w.op = func(ctx context.Context, i int) error {
			tpNext.Here(ctx, op)
			return fs.CreateMetadataOnly(ctx, fmt.Sprintf("%s/new-%09d", base, i), 8e3)
		}
	case OpRename:
		w.op = func(ctx context.Context, i int) error {
			tpNext.Here(ctx, op)
			src := fmt.Sprintf("%s/f%02d", base, i%16)
			dst := fmt.Sprintf("%s/r-%09d", base, i)
			if err := fs.Rename(ctx, src, dst); err != nil {
				return err
			}
			return fs.Rename(ctx, dst, src)
		}
	default:
		return nil, fmt.Errorf("workload: unknown NNBench op %q", op)
	}
	return w, nil
}
