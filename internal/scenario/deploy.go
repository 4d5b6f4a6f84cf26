package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/netsim"
	"repro/internal/workload"
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

// deploy builds the cluster and topology for a run, reporting at the
// scenario's Interval, and deploys the NameNode and admin on it; the
// scenario body starts every other daemon.
func deploy(r *Run) *workload.Deployment {
	racks := (r.Hosts + hostsPerRack - 1) / hostsPerRack
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
	nnCfg := hdfs.DefaultConfig()
	// Replica placement keyed by file path: independent of the arrival
	// order of concurrent Creates, a byte-identical-report requirement.
	nnCfg.DeterministicPlacement = true
	nnCfg.Seed = r.Seed
	// First-replica selection for the deployment's clients: RegionServer
	// handlers and MapReduce tasks share HDFS clients, and a shared rng
	// would make replica choice depend on handler interleaving.
	return workload.Deploy(c, topo.Names(), nnCfg, hdfs.ClientConfig{})
}

// StartClients spawns unmonitored client processes spread round-robin
// over the given hosts (unmonitored: scenario assertions count daemon
// work, and a thousand client agents would swamp the report stream).
func (r *Run) StartClients(n int, hosts []string) []*cluster.Process {
	procs := make([]*cluster.Process, n)
	for i := range procs {
		// The wave number keeps process names unique when more clients
		// than hosts are requested (the thundering-herd sizing).
		procs[i] = r.C.StartUnmonitored(hosts[i%len(hosts)], fmt.Sprintf("Client%02d", i/len(hosts)))
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
// and gives each an HBase client of the deployment's HBase.
func (r *Run) HBaseClients(n int) ([]*cluster.Process, []*hbase.Client) {
	procs := r.StartClients(n, r.Workers)
	hbs := make([]*hbase.Client, n)
	for i, p := range procs {
		hbs[i] = hbase.NewClient(p, r.HB)
	}
	return procs, hbs
}
