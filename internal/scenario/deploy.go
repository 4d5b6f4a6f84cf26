package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/mapreduce"
	"repro/internal/netsim"
	"repro/internal/yarn"
)

// Topology shape: 16 hosts per rack behind a 4 Gbit ToR uplink, 8 racks
// per pod behind an 8 Gbit pod uplink. Master daemons (NameNode,
// ResourceManager, HBase master, the admin client) live on a flat
// out-of-topology "master" host so control traffic never competes with
// rack uplinks.
const (
	hostsPerRack = 16
	racksPerPod  = 8
	rackUplink   = 4 * netsim.Gbit
	podUplink    = 8 * netsim.Gbit
)

// Deployment is the substrate every scenario starts from: a rack/pod
// topology of worker hosts, the HDFS NameNode, and an admin client on
// the master host.
type Deployment struct {
	C  *cluster.Cluster
	NN *hdfs.NameNode
	// Workers names every topology host, in topology order.
	Workers []string

	// Admin is an unmonitored process on the master host used for
	// namespace setup (pre-populating datasets); unmonitored so setup
	// does not perturb query results.
	Admin   *cluster.Process
	AdminFS *hdfs.Client
}

// deploy builds the cluster and topology for a run, reporting at the
// scenario's Interval.
func deploy(r *Run) *Deployment {
	racks := (r.Hosts + hostsPerRack - 1) / hostsPerRack
	if racks < 1 {
		racks = 1
	}
	cfg := cluster.DefaultConfig()
	cfg.ReportInterval = r.S.Interval
	// Scenario reads are 64 kB+; everything below rides the closed-form
	// small-flow path so million-request runs stay fast.
	cfg.SmallFlowCutoff = 32e3
	if r.S.CombinerTree {
		// One mid combiner per rack, so agent report traffic aggregates
		// rack by rack before it reaches the frontends.
		cfg.Combiners = racks
	}
	c := cluster.New(r.Env, cfg)
	topo := c.AdoptTopology(netsim.TopologyConfig{
		Racks:        racks,
		HostsPerRack: hostsPerRack,
		RacksPerPod:  racksPerPod,
		RackUplink:   rackUplink,
		PodUplink:    podUplink,
	})

	d := &Deployment{C: c, Workers: topo.Names()}
	nnCfg := hdfs.DefaultConfig()
	// Replica placement keyed by file path: independent of the arrival
	// order of concurrent Creates, a byte-identical-report requirement.
	nnCfg.DeterministicPlacement = true
	nnCfg.Seed = r.Seed
	d.NN = hdfs.NewNameNode(c, "master", nnCfg)
	d.Admin = c.StartUnmonitored("master", "Admin")
	d.AdminFS = hdfs.NewClient(d.Admin, d.NN, hdfs.ClientConfig{RandomReplicaSelection: true, Seed: r.Seed})
	return d
}

// StartDataNodes spawns DataNodes on the given hosts.
func (d *Deployment) StartDataNodes(hosts []string) []*hdfs.DataNode {
	return hdfs.NewDataNodes(d.C, hosts, d.NN)
}

// StartHBase spawns the HBase master (on the master host) plus
// RegionServers on the given hosts, and registers their store files.
func (d *Deployment) StartHBase(hosts []string, storeFileSize float64, seed int64) (*hbase.HBase, []*hbase.RegionServer) {
	hb := hbase.New(d.C, "master", hbase.Config{})
	// First-replica selection: RegionServer handlers share one HDFS
	// client, and a shared rng would make replica choice depend on
	// handler interleaving — the static choice keeps runs byte-identical.
	servers := hb.AddRegionServers(d.C, hosts, d.NN,
		hdfs.ClientConfig{RandomReplicaSelection: false, Seed: seed})
	if err := hb.InitStoreFiles(d.Admin.NewRequest(), d.AdminFS, storeFileSize); err != nil {
		panic("scenario: hbase store files: " + err.Error())
	}
	return hb, servers
}

// StartYARN spawns the ResourceManager (master host) and NodeManagers on
// the given hosts.
func (d *Deployment) StartYARN(hosts []string, containersPerNode int) (*yarn.ResourceManager, []*yarn.NodeManager) {
	rm := yarn.NewResourceManager(d.C, "master")
	nms := yarn.NewNodeManagers(d.C, hosts, rm, containersPerNode)
	return rm, nms
}

// StartMapReduce wires a MapReduce framework over the given RM.
func (d *Deployment) StartMapReduce(rm *yarn.ResourceManager, seed int64) *mapreduce.Framework {
	// First-replica selection, as in StartHBase: task processes share
	// per-host HDFS clients across concurrent tasks.
	return mapreduce.New(d.C, rm, d.NN,
		hdfs.ClientConfig{RandomReplicaSelection: false, Seed: seed})
}

// Dataset registers count HDFS files of the given size (metadata only —
// instant) named "/data/f%06d" and returns their paths.
func (d *Deployment) Dataset(count int, size float64) []string {
	ctx := d.Admin.NewRequest()
	paths := make([]string, count)
	for i := range paths {
		paths[i] = datasetPath(i)
		if err := d.AdminFS.CreateMetadataOnly(ctx, paths[i], size); err != nil {
			panic("scenario: dataset: " + err.Error())
		}
	}
	return paths
}

// StartClients spawns unmonitored client processes spread round-robin
// over the given hosts (unmonitored: scenario assertions count daemon
// work, and a thousand client agents would swamp the report stream).
func (d *Deployment) StartClients(n int, hosts []string) []*cluster.Process {
	procs := make([]*cluster.Process, n)
	for i := range procs {
		// The wave number keeps process names unique when more clients
		// than hosts are requested (the thundering-herd sizing).
		procs[i] = d.C.StartUnmonitored(hosts[i%len(hosts)], fmt.Sprintf("Client%02d", i/len(hosts)))
	}
	return procs
}

// HDFSClients starts n client processes over the workers (StartClients)
// and gives each an HDFS client with random replica selection.
func (r *Run) HDFSClients(n int) ([]*cluster.Process, []*hdfs.Client) {
	procs := r.StartClients(n, r.Workers)
	fs := make([]*hdfs.Client, n)
	for i, p := range procs {
		fs[i] = hdfs.NewClient(p, r.NN, hdfs.ClientConfig{RandomReplicaSelection: true, Seed: r.Seed})
	}
	return procs, fs
}

// HBaseClients starts n client processes over the workers (StartClients)
// and gives each an HBase client of hb.
func (r *Run) HBaseClients(n int, hb *hbase.HBase) ([]*cluster.Process, []*hbase.Client) {
	procs := r.StartClients(n, r.Workers)
	hbs := make([]*hbase.Client, n)
	for i, p := range procs {
		hbs[i] = hbase.NewClient(p, hb)
	}
	return procs, hbs
}

func datasetPath(i int) string {
	const digits = "0123456789"
	buf := []byte("/data/f000000")
	for p := len(buf) - 1; i > 0; p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return string(buf)
}
