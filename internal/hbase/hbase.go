// Package hbase implements a simulated HBase: a Master assigning key-range
// regions to RegionServers, RegionServers serving gets and scans through
// HDFS with a bounded handler pool, and a client library. Fault injection
// covers the paper's §6.2 replications: rogue garbage collection pauses in
// a RegionServer, and the cluster-wide latency effects of a limping NIC.
package hbase

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdfs"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// RegionServerHandlers is the RPC handler pool size per RegionServer.
const RegionServerHandlers = 30

// Config controls an HBase deployment.
type Config struct {
	// Regions is the number of key-range regions (default: one per
	// RegionServer).
	Regions int
}

// HBase is one deployment: a Master plus RegionServers.
type HBase struct {
	Master *cluster.Process
	cfg    Config

	mu      sync.Mutex
	servers []*RegionServer
	regions int
	routing func(row string, servers int) int
}

// New starts the HBase Master.
func New(c *cluster.Cluster, masterHost string, cfg Config) *HBase {
	hb := &HBase{Master: c.Start(masterHost, "HBaseMaster"), cfg: cfg}
	hb.Master.Define("Master.Assign", "region")
	return hb
}

// RegionServer serves the rows of its assigned regions.
type RegionServer struct {
	Proc *cluster.Process
	hb   *HBase
	fs   *hdfs.Client
	sem  *simtime.Semaphore

	// draining, when set, removes the server from row routing (a failover
	// or decommission). In-flight requests finish; new requests route to
	// the next live server.
	draining atomic.Bool

	gcMu    sync.Mutex
	gcUntil time.Duration
	rogueGC bool

	tpClient  *tracepoint.Tracepoint // RS.ClientService
	tpEnqueue *tracepoint.Tracepoint
	tpDequeue *tracepoint.Tracepoint
	tpDone    *tracepoint.Tracepoint
	tpGCStart *tracepoint.Tracepoint
	tpGCEnd   *tracepoint.Tracepoint
}

// AddRegionServer starts a RegionServer on a host, reading its store files
// through the given NameNode.
func (hb *HBase) AddRegionServer(c *cluster.Cluster, host string, nn *hdfs.NameNode, fsCfg hdfs.ClientConfig) *RegionServer {
	proc := c.Start(host, "RegionServer")
	rs := &RegionServer{
		Proc: proc,
		hb:   hb,
		fs:   hdfs.NewClient(proc, nn, fsCfg),
		sem:  c.Env.NewSemaphore(RegionServerHandlers),
	}
	rs.tpClient = proc.Define("RS.ClientService", "op", "row", "size")
	rs.tpEnqueue = proc.Define("RS.Enqueue", "op")
	rs.tpDequeue = proc.Define("RS.Dequeue", "op")
	rs.tpDone = proc.Define("RS.ProcessEnd", "op")
	rs.tpGCStart = proc.Define("RS.GCStart")
	rs.tpGCEnd = proc.Define("RS.GCEnd")
	proc.Handle("ClientService.Get", func(ctx context.Context, req any) (any, error) {
		return rs.serve(ctx, "get", req.(OpReq))
	})
	proc.Handle("ClientService.Scan", func(ctx context.Context, req any) (any, error) {
		return rs.serve(ctx, "scan", req.(OpReq))
	})
	hb.mu.Lock()
	hb.servers = append(hb.servers, rs)
	hb.regions = len(hb.servers)
	if hb.cfg.Regions > hb.regions {
		hb.regions = hb.cfg.Regions
	}
	hb.mu.Unlock()
	return rs
}

// EnableRogueGC starts periodic stop-the-world pauses on this server (the
// §6.2 rogue GC replication).
func (rs *RegionServer) EnableRogueGC(interval, pause time.Duration) {
	rs.gcMu.Lock()
	if rs.rogueGC {
		rs.gcMu.Unlock()
		return
	}
	rs.rogueGC = true
	rs.gcMu.Unlock()
	env := rs.Proc.C.Env
	env.Go(func() {
		for !env.Done() {
			env.Sleep(interval)
			// Each pause is one traced execution with its own baggage, so
			// the GC span query can join start and end timestamps.
			ctx := rs.Proc.NewRequest()
			rs.tpGCStart.Here(ctx)
			rs.gcMu.Lock()
			rs.gcUntil = env.Now() + pause
			rs.gcMu.Unlock()
			env.Sleep(pause)
			rs.tpGCEnd.Here(ctx)
		}
	})
}

// maybeGCStall blocks the calling handler until any in-progress GC pause
// ends (stop-the-world).
func (rs *RegionServer) maybeGCStall() {
	env := rs.Proc.C.Env
	for {
		rs.gcMu.Lock()
		until := rs.gcUntil
		rs.gcMu.Unlock()
		now := env.Now()
		if until <= now {
			return
		}
		env.Sleep(until - now)
	}
}

// OpReq is a get or scan request.
type OpReq struct {
	Row  string
	Size float64 // bytes to return
}

// serve handles one get/scan: queueing on the handler pool, a store-file
// read through HDFS, and CPU work.
func (rs *RegionServer) serve(ctx context.Context, op string, r OpReq) (any, error) {
	rs.tpClient.Here(ctx, op, r.Row, r.Size)
	rs.tpEnqueue.Here(ctx, op)
	rs.sem.Acquire()
	defer rs.sem.Release()
	rs.maybeGCStall()
	rs.tpDequeue.Here(ctx, op)

	// Read the store file data from HDFS. Gets read a small block; scans
	// stream the full size.
	file := fmt.Sprintf("/hbase/%s/store", regionOf(r.Row, rs.hb.regionCount()))
	if err := rs.fs.Read(ctx, file, 0, r.Size); err != nil {
		return nil, err
	}
	rs.Proc.C.Env.Sleep(time.Duration(r.Size/400e6*float64(time.Second)) + 50*time.Microsecond)
	rs.maybeGCStall()
	rs.tpDone.Here(ctx, op)
	return r.Size, nil
}

func (hb *HBase) regionCount() int {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return hb.regions
}

// SetDraining marks the server as draining (or restores it). Draining
// servers are skipped by row routing, shifting their key ranges onto the
// next live servers — the cascading-failover and decommission hook.
func (rs *RegionServer) SetDraining(d bool) { rs.draining.Store(d) }

// SetRouting overrides the row-to-server routing function with fn (row,
// server count) -> server index; nil restores the default hash routing.
// Region rebalancing is modeled by swapping routing functions at runtime.
func (hb *HBase) SetRouting(fn func(row string, servers int) int) {
	hb.mu.Lock()
	hb.routing = fn
	hb.mu.Unlock()
}

// serverFor routes a row key to its RegionServer: the routing function's
// pick (default: hash), then linear probing past draining servers.
func (hb *HBase) serverFor(row string) *RegionServer {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	n := len(hb.servers)
	if n == 0 {
		return nil
	}
	idx := 0
	if hb.routing != nil {
		idx = hb.routing(row, n) % n
		if idx < 0 {
			idx += n
		}
	} else {
		idx = hashRow(row) % n
	}
	for probe := 0; probe < n; probe++ {
		rs := hb.servers[(idx+probe)%n]
		if !rs.draining.Load() {
			return rs
		}
	}
	return nil
}

// HostFor returns the host currently serving row (after routing overrides
// and draining probes), or "" with no live servers. Scenario assertions
// use it to predict where load lands.
func (hb *HBase) HostFor(row string) string {
	rs := hb.serverFor(row)
	if rs == nil {
		return ""
	}
	return rs.Proc.Info.Host
}

func hashRow(row string) int {
	h := 0
	for _, c := range row {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h
}

func regionOf(row string, regions int) string {
	if regions <= 0 {
		regions = 1
	}
	return fmt.Sprintf("region-%04d", hashRow(row)%regions)
}

// InitStoreFiles registers the region store files in HDFS (metadata only)
// so reads succeed. Call once after all RegionServers are added.
func (hb *HBase) InitStoreFiles(ctx context.Context, admin *hdfs.Client, storeFileSize float64) error {
	n := hb.regionCount()
	for i := 0; i < n; i++ {
		file := fmt.Sprintf("/hbase/region-%04d/store", i)
		if err := admin.CreateMetadataOnly(ctx, file, storeFileSize); err != nil {
			return err
		}
	}
	return nil
}

// Client is the HBase client library, embedded in an application process.
type Client struct {
	Proc *cluster.Process
	hb   *HBase

	tpClientProto *tracepoint.Tracepoint
}

// NewClient creates an HBase client inside proc.
func NewClient(proc *cluster.Process, hb *HBase) *Client {
	return &Client{
		Proc:          proc,
		hb:            hb,
		tpClientProto: proc.Define("ClientProtocols"),
	}
}

// Get fetches one row of the given size (10 kB lookups in the paper's
// Hget workload).
func (c *Client) Get(ctx context.Context, row string, size float64) error {
	c.tpClientProto.Here(ctx)
	rs := c.hb.serverFor(row)
	if rs == nil {
		return fmt.Errorf("hbase: no region servers")
	}
	_, err := c.Proc.Call(ctx, rs.Proc, "ClientService.Get",
		OpReq{Row: row, Size: size},
		cluster.Sizes{Request: 150, Response: size})
	return err
}

// Scan streams size bytes starting at row (4 MB scans in the paper's
// Hscan workload).
func (c *Client) Scan(ctx context.Context, row string, size float64) error {
	c.tpClientProto.Here(ctx)
	rs := c.hb.serverFor(row)
	if rs == nil {
		return fmt.Errorf("hbase: no region servers")
	}
	_, err := c.Proc.Call(ctx, rs.Proc, "ClientService.Scan",
		OpReq{Row: row, Size: size},
		cluster.Sizes{Request: 150, Response: size})
	return err
}
