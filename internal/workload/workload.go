// Package workload implements the paper's testbed and client applications:
// the Hadoop stack deployment that the eight-machine testbed (§2, §6) and
// the rack/pod scenarios run on, and the closed-loop
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

// Deployment is the simulated Hadoop stack on one cluster: the HDFS
// NameNode and an admin client on the "master" host, and whichever other
// daemons the caller starts on the worker hosts. The paper's testbed
// (NewTestbed) and every rack/pod scenario are built from it.
type Deployment struct {
	C  *cluster.Cluster
	NN *hdfs.NameNode
	// Workers names the worker hosts, in the order daemons start on them.
	Workers []string
	DNs     []*hdfs.DataNode
	// FS configures every HDFS client the deployment builds: the admin's,
	// the RegionServers', the MapReduce tasks' and the workloads'.
	FS hdfs.ClientConfig

	// Admin is an unmonitored process on the master host used for
	// namespace setup (pre-populating datasets); unmonitored so setup
	// does not perturb query results.
	Admin   *cluster.Process
	AdminFS *hdfs.Client

	HB *hbase.HBase
	RM *yarn.ResourceManager
	MR *mapreduce.Framework
}

// Deploy starts the NameNode and the admin on the master host of c. The
// other daemons start on demand, in the order the caller asks for them:
// process start order seeds each HDFS client's replica rng, so it is part
// of every report's bytes.
func Deploy(c *cluster.Cluster, workers []string, nnCfg hdfs.Config, fsCfg hdfs.ClientConfig) *Deployment {
	d := &Deployment{C: c, Workers: workers, FS: fsCfg}
	d.NN = hdfs.NewNameNode(c, "master", nnCfg)
	d.Admin = c.StartUnmonitored("master", "admin")
	d.AdminFS = hdfs.NewClient(d.Admin, d.NN, fsCfg)
	return d
}

// StartDataNodes starts a DataNode on every worker host.
func (d *Deployment) StartDataNodes() {
	for _, host := range d.Workers {
		d.DNs = append(d.DNs, hdfs.NewDataNode(d.C, host, d.NN))
	}
}

// StartHBase starts the HBase master on the master host and a
// RegionServer on each of hosts, over regions key ranges (0: one per
// RegionServer), and returns the RegionServers.
func (d *Deployment) StartHBase(hosts []string, regions int) []*hbase.RegionServer {
	d.HB = hbase.New(d.C, "master", hbase.Config{Regions: regions})
	servers := make([]*hbase.RegionServer, len(hosts))
	for i, host := range hosts {
		servers[i] = d.HB.AddRegionServer(d.C, host, d.NN, d.FS)
	}
	return servers
}

// InitHBaseStores registers the HBase region store files.
func (d *Deployment) InitHBaseStores(storeSize float64) error {
	return d.HB.InitStoreFiles(d.Admin.NewRequest(), d.AdminFS, storeSize)
}

// StartMapReduce starts the YARN ResourceManager on the master host and a
// NodeManager with the given container capacity (0: the default) on each
// of hosts, wires the MapReduce framework over them, and returns the
// NodeManagers.
func (d *Deployment) StartMapReduce(hosts []string, containers int) []*yarn.NodeManager {
	d.RM = yarn.NewResourceManager(d.C, "master")
	nms := make([]*yarn.NodeManager, len(hosts))
	for i, host := range hosts {
		nms[i] = yarn.NewNodeManager(d.C, host, d.RM, containers)
	}
	d.MR = mapreduce.New(d.C, d.RM, d.NN, d.FS)
	return nms
}

// Dataset registers count HDFS files of the given size (metadata only:
// instant), named by format and index, and returns their paths.
func (d *Deployment) Dataset(format string, count int, size float64) []string {
	ctx := d.Admin.NewRequest()
	paths := make([]string, count)
	for i := range paths {
		paths[i] = fmt.Sprintf(format, i)
		if err := d.AdminFS.CreateMetadataOnly(ctx, paths[i], size); err != nil {
			panic("workload: dataset: " + err.Error())
		}
	}
	return paths
}

// TestbedConfig sizes the paper's testbed.
type TestbedConfig struct {
	Hosts      int // worker hosts
	Cluster    cluster.Config
	NameNode   hdfs.Config
	HDFSClient hdfs.ClientConfig
}

// DefaultTestbedConfig mirrors the paper's cluster: 8 worker machines with
// 1 Gbit NICs, plus a master host.
func DefaultTestbedConfig() TestbedConfig {
	return TestbedConfig{Hosts: 8, Cluster: cluster.DefaultConfig(), NameNode: hdfs.DefaultConfig()}
}

// HostName returns the i-th worker host name ("host-A" for 0).
func HostName(i int) string { return fmt.Sprintf("host-%c", 'A'+i) }

// NewTestbed deploys the paper's testbed on a fresh cluster: flat worker
// hosts "host-A", "host-B", ..., each running a DataNode. HBase and
// MapReduce start on demand.
func NewTestbed(env *simtime.Env, cfg TestbedConfig) *Deployment {
	workers := make([]string, cfg.Hosts)
	for i := range workers {
		workers[i] = HostName(i)
	}
	d := Deploy(cluster.New(env, cfg.Cluster), workers, cfg.NameNode, cfg.HDFSClient)
	d.StartDataNodes()
	return d
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

	think time.Duration
	op    func(ctx context.Context, i int) error
}

// Start launches the closed loop: op, record latency, optional think
// time, repeat until the simulation ends. An op that fails panics, naming
// the workload and the op; simtime.Env.Run re-raises it, so the simulation
// ends rather than carry on without this client.
func (w *Workload) Start() {
	env := w.Proc.C.Env
	env.Go(func() {
		for i := 0; !env.Done(); i++ {
			if err := w.RunOnce(i); err != nil {
				panic(fmt.Sprintf("workload %s: op %d: %v", w.Name, i, err))
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

func (d *Deployment) newWorkload(host, name string, think time.Duration, op func(ctx context.Context, i int) error) *Workload {
	return &Workload{
		Name:  name,
		Proc:  d.C.Start(host, name),
		Rec:   metrics.NewLatencyRecorder(),
		think: think,
		op:    op,
	}
}

// NewFSRead builds the FSread4m / FSread64m workloads: closed-loop random
// reads of readSize from a private dataset of fileCount files.
func (d *Deployment) NewFSRead(host, name string, readSize float64, fileCount int, seed int64) (*Workload, error) {
	w := d.newWorkload(host, name, 0, nil)
	fs := hdfs.NewClient(w.Proc, d.NN, d.FS)
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
func (d *Deployment) NewHGet(host string, seed int64) *Workload {
	w := d.newWorkload(host, "HGET", 0, nil)
	hc := hbase.NewClient(w.Proc, d.HB)
	rng := rand.New(rand.NewSource(seed))
	w.op = func(ctx context.Context, i int) error {
		return hc.Get(ctx, fmt.Sprintf("row-%08d", rng.Intn(1<<20)), 10e3)
	}
	return w
}

// NewHScan builds the Hscan workload: closed-loop 4 MB table scans.
func (d *Deployment) NewHScan(host string, seed int64) *Workload {
	w := d.newWorkload(host, "HSCAN", 0, nil)
	hc := hbase.NewClient(w.Proc, d.HB)
	rng := rand.New(rand.NewSource(seed))
	w.op = func(ctx context.Context, i int) error {
		return hc.Scan(ctx, fmt.Sprintf("row-%08d", rng.Intn(1<<20)), 4e6)
	}
	return w
}

// NewMRSort builds the MRsort workloads: repeatedly sort inputGB of data.
func (d *Deployment) NewMRSort(host, name string, inputBytes float64) (*Workload, error) {
	w := d.newWorkload(host, name, 0, nil)
	input := "/data/" + name + "/input"
	if err := d.AdminFS.CreateMetadataOnly(d.Admin.NewRequest(), input, inputBytes); err != nil {
		return nil, err
	}
	w.op = func(ctx context.Context, i int) error {
		return d.MR.Submit(ctx, w.Proc, mapreduce.JobConfig{Name: name, Input: input})
	}
	return w, nil
}

// NewStressTest builds one §6.1 StressTest client on a host: closed-loop
// random 8 kB reads from the shared dataset, crossing the
// StressTest.DoNextOp tracepoint.
func (d *Deployment) NewStressTest(host string, id int, files []string, think time.Duration, seed int64) *Workload {
	name := "StressTest"
	if id > 0 {
		name = fmt.Sprintf("StressTest-%d", id)
	}
	w := d.newWorkload(host, name, think, nil)
	fs := hdfs.NewClient(w.Proc, d.NN, d.FS)
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
func (d *Deployment) NewNNBench(host, op string, seed int64) (*Workload, error) {
	w := d.newWorkload(host, fmt.Sprintf("NNBench-%s-%d", op, seed), 0, nil)
	fs := hdfs.NewClient(w.Proc, d.NN, d.FS)
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
