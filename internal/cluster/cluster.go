// Package cluster wires a complete simulated deployment: hosts with NICs
// and disks (netsim), processes with per-process tracepoint registries and
// Pivot Tracing agents, a baggage-propagating RPC layer, and the Pivot
// Tracing frontend — the substrate the Hadoop-stack systems (hdfs, hbase,
// yarn, mapreduce) run on.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// Config sets cluster-wide parameters.
type Config struct {
	// NICRate and DiskRate are per-host resource capacities in bytes/s.
	NICRate  float64
	DiskRate float64
	// ReportInterval is the agent reporting interval.
	ReportInterval time.Duration
	// RPCLatency is the fixed one-way message latency.
	RPCLatency time.Duration
	// SmallFlowCutoff, when > 0, routes network transfers of at most
	// that many bytes through netsim's closed-form small-flow path
	// (see netsim.Network.SetSmallFlowCutoff). Large scenario runs set
	// this just below their data-read size so control RPCs stay cheap;
	// zero preserves the exact model everywhere.
	SmallFlowCutoff float64
	// Combiners is the width of the mid combiner tier that aggregates
	// agent reports under one root combiner before any frontend sees them
	// (tree.go), so no frontend subscription scales with agent count.
	// Zero is the flat deployment — a tree with no tiers — where agents
	// publish on the results topic the frontends read.
	Combiners int
	// Spans turns on causal span capture: every monitored process records
	// spans at tracepoint crossings and the frontend reconstructs
	// per-request DAGs (PT.Traces()), which also enables EXPLAIN ANALYZE.
	Spans bool
}

// DefaultConfig models the paper's testbed: 1 Gbit NICs, commodity disks,
// one-second agent reports.
func DefaultConfig() Config {
	return Config{
		NICRate:        netsim.Gbit,
		DiskRate:       netsim.DiskRate,
		ReportInterval: agent.DefaultInterval,
		RPCLatency:     200 * time.Microsecond,
	}
}

// Cluster is one simulated deployment.
type Cluster struct {
	Env *simtime.Env
	Net *netsim.Network
	Bus *bus.Bus
	// PT is the Pivot Tracing frontend for this deployment.
	PT  *core.PivotTracing
	cfg Config

	// combiners are the aggregation tiers in dataflow order (mids, then
	// the root) and partitions the number of topics agent reports are
	// sharded across; both are fixed by New and empty/zero when flat.
	combiners  []*combiner.Combiner
	partitions int

	mu      sync.Mutex
	hosts   map[string]*netsim.Host
	procs   []*Process
	byName  map[string]*Process // "host/proc"
	nextID  int64
	tenants []*core.PivotTracing // additional tenant frontends (tree.go)
}

// New creates an empty cluster. The reporting topology is decided here,
// before any process exists: every agent is handed its report topic as it
// starts and never retargeted.
func New(env *simtime.Env, cfg Config) *Cluster {
	c := &Cluster{
		Env:    env,
		Net:    netsim.New(env),
		Bus:    bus.New(),
		cfg:    cfg,
		hosts:  make(map[string]*netsim.Host),
		byName: make(map[string]*Process),
	}
	c.PT = core.New(c.Bus, tracepoint.NewRegistry())
	if cfg.Spans {
		c.PT.EnableTraceCollection()
	}
	c.newTiers()
	if cfg.SmallFlowCutoff > 0 {
		c.Net.SetSmallFlowCutoff(cfg.SmallFlowCutoff)
	}
	// Renew query leases on the virtual clock, as a live frontend would;
	// lease expiry (a dead frontend) is exercised by the chaos tests over
	// the TCP bus, where the frontend really can disappear. The loop ends
	// when the environment's teardown unwinds it out of its Sleep.
	env.Go(func() {
		for {
			env.Sleep(agent.DefaultLease / 3)
			c.RenewLeases()
		}
	})
	return c
}

// clock adapts the simulation environment to the tracepoint.Clock
// interface so tracepoints export virtual time.
type clock struct{ env *simtime.Env }

func (c clock) Now() time.Duration { return c.env.Now() }

// Host returns (creating if needed) the named host.
func (c *Cluster) Host(name string) *netsim.Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[name]
	if !ok {
		h = c.Net.NewHost(name, c.cfg.NICRate, c.cfg.DiskRate)
		h.Latency = c.cfg.RPCLatency
		c.hosts[name] = h
	}
	return h
}

// AdoptHosts registers externally built hosts (typically a
// netsim.BuildTopology fabric constructed on c.Net) so Host and Start
// resolve them by name instead of lazily creating flat replacements.
// Panics if a name is already taken.
func (c *Cluster) AdoptHosts(hosts ...*netsim.Host) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hosts {
		if _, dup := c.hosts[h.Name]; dup {
			panic(fmt.Sprintf("cluster: duplicate host %q", h.Name))
		}
		c.hosts[h.Name] = h
	}
}

// AdoptTopology builds a rack/pod topology on the cluster's network and
// adopts every host, returning the topology for name/placement lookups.
// This is the bulk host-creation path scenario runs use: one call stands
// up a 1000-host fabric with interned names.
func (c *Cluster) AdoptTopology(cfg netsim.TopologyConfig) *netsim.Topology {
	if cfg.NICRate == 0 {
		cfg.NICRate = c.cfg.NICRate
	}
	if cfg.DiskRate == 0 {
		cfg.DiskRate = c.cfg.DiskRate
	}
	if cfg.HostLatency == 0 {
		cfg.HostLatency = c.cfg.RPCLatency
	}
	topo := netsim.BuildTopology(c.Net, cfg)
	c.AdoptHosts(topo.Hosts()...)
	return topo
}

// Process is one simulated OS process: an identity, a host, a private
// tracepoint registry, a Pivot Tracing agent, and a set of RPC handlers.
type Process struct {
	C    *Cluster
	Info tracepoint.ProcInfo
	Host *netsim.Host
	Reg  *tracepoint.Registry
	// Agent is the process's Pivot Tracing agent; nil if the process was
	// started without one (unmonitored).
	Agent *agent.Agent

	mu       sync.Mutex
	handlers map[string]handler

	base  context.Context  // what Context returns, built once by start
	clock tracepoint.Clock // the cluster's virtual clock, boxed once

	fileIn, fileOut  *tracepoint.Tracepoint
	rpcRecv, rpcResp *tracepoint.Tracepoint
}

// Handler serves one RPC method.
type Handler func(ctx context.Context, req any) (any, error)

// handler is a registered Handler with its method name boxed once, as the
// RPC boundary tracepoints export it on every call.
type handler struct {
	serve  Handler
	method any
}

// Start launches a process on a host with a Pivot Tracing agent.
func (c *Cluster) Start(hostName, procName string) *Process {
	return c.start(hostName, procName, true)
}

// StartUnmonitored launches a process without a Pivot Tracing agent
// (baggage still propagates through it — the paper's §8 note that systems
// without agents still forward baggage).
func (c *Cluster) StartUnmonitored(hostName, procName string) *Process {
	return c.start(hostName, procName, false)
}

func (c *Cluster) start(hostName, procName string, monitored bool) *Process {
	host := c.Host(hostName)
	c.mu.Lock()
	c.nextID++
	p := &Process{
		C: c,
		Info: tracepoint.ProcInfo{
			Host: hostName, ProcName: procName, ProcID: c.nextID,
		},
		Host:     host,
		Reg:      tracepoint.NewRegistry(),
		handlers: make(map[string]handler),
		clock:    clock{env: c.Env},
	}
	p.base = p.In(context.Background())
	key := hostName + "/" + procName
	if _, dup := c.byName[key]; dup {
		c.mu.Unlock()
		panic(fmt.Sprintf("cluster: duplicate process %s", key))
	}
	c.byName[key] = p
	c.procs = append(c.procs, p)
	tenants := append([]*core.PivotTracing(nil), c.tenants...)
	c.mu.Unlock()
	if monitored {
		a := agent.New(c.Env, p.Info, p.Reg, c.Bus, c.cfg.ReportInterval)
		a.SetReportTopic(c.reportTopic(hostName, procName))
		if c.cfg.Spans {
			a.EnableSpans(uint64(p.Info.ProcID)<<32, 0)
		}
		p.Agent = a
		// Replay standing queries so late-started processes participate —
		// the primary's and every tenant frontend's.
		for _, msg := range c.PT.Installs() {
			p.Agent.Deliver(msg)
		}
		for _, t := range tenants {
			for _, msg := range t.Installs() {
				p.Agent.Deliver(msg)
			}
		}
	}
	// Every process has the file-stream tracepoints (the paper instruments
	// Java's FileInputStream/FileOutputStream via the boot classpath to
	// capture all direct disk IO — Fig 1c).
	p.fileIn = p.Define("FileInputStream.read", "length")
	p.fileOut = p.Define("FileOutputStream.write", "length")
	// Every server also has generic RPC boundary tracepoints, the natural
	// home of the paper's Q8 latency query.
	p.rpcRecv = p.Define("RPC.Receive", "method")
	p.rpcResp = p.Define("RPC.Respond", "method")
	return p
}

// DiskRead reads n bytes from the process's local disk, contending with
// other disk users on the host and crossing the FileInputStream tracepoint.
func (p *Process) DiskRead(ctx context.Context, n float64) {
	p.fileIn.Here(ctx, n)
	p.Host.DiskRead(n)
}

// DiskWrite writes n bytes to the process's local disk.
func (p *Process) DiskWrite(ctx context.Context, n float64) {
	p.fileOut.Here(ctx, n)
	p.Host.DiskWrite(n)
}

// Proc returns the process named "procName" on hostName, or nil.
func (c *Cluster) Proc(hostName, procName string) *Process {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byName[hostName+"/"+procName]
}

// Procs returns all processes in start order.
func (c *Cluster) Procs() []*Process {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Process(nil), c.procs...)
}

// FlushAgents forces every agent to report immediately (used at experiment
// shutdown so the final interval is not lost), then flushes the combiner
// tiers in dataflow order so those reports reach the frontends too.
func (c *Cluster) FlushAgents() {
	for _, p := range c.Procs() {
		if p.Agent != nil {
			p.Agent.Flush()
		}
	}
	for _, t := range c.combiners {
		t.Flush()
	}
}

// WeaveAll weaves advice into the named tracepoint in every process that
// defines it, returning the number of weaves. Used by the baseline
// global-evaluation strategy, which bypasses agents.
func (c *Cluster) WeaveAll(tpName string, adv tracepoint.Advice) int {
	n := 0
	for _, p := range c.Procs() {
		if p.Reg.Lookup(tpName) != nil {
			if p.Reg.Weave(tpName, adv) == nil {
				n++
			}
		}
	}
	return n
}

// Define declares a tracepoint in this process and mirrors the definition
// into the cluster's master registry (the query vocabulary).
func (p *Process) Define(name string, exports ...string) *tracepoint.Tracepoint {
	p.C.PT.Registry().Define(name, exports...)
	return p.Reg.Define(name, exports...)
}

// Context returns the base context for code executing in this process:
// process identity and the virtual clock, but no request baggage.
func (p *Process) Context() context.Context { return p.base }

// NewRequest returns a context for a fresh request originating in this
// process: identity, clock, and new empty baggage. The process's agent
// mints the request's sampling decision here — once, before the request
// can split — so every tracepoint on its causal path sees one verdict.
func (p *Process) NewRequest() context.Context {
	c := p.receive(context.Background(), nil)
	if p.Agent != nil {
		p.Agent.MintSampleDecision(&c.bag)
	}
	return c
}

// In adapts a context to this process: the same request baggage, but this
// process's identity and clock. Used when an execution logically moves into
// another process without an RPC (e.g. a task launching in a container).
func (p *Process) In(ctx context.Context) context.Context {
	return &procCtx{Context: ctx, p: p}
}

// receive adapts an inbound request to this process: same deadline, this
// process's identity and clock, and baggage of its own loaded from wire.
func (p *Process) receive(ctx context.Context, wire []byte) *procCtx {
	c := &procCtx{Context: ctx, p: p, carries: true}
	c.bag.Load(wire)
	return c
}

// procCtx is the one context node an execution gains on entering a process.
// It answers for the process identity, the clock and the request's baggage
// together, where tracepoint.WithProc, tracepoint.WithClock and
// baggage.NewContext would stack three nodes and box the identity again.
type procCtx struct {
	context.Context
	p       *Process
	bag     baggage.Baggage
	carries bool // false from In: the inbound context's baggage stays visible
}

func (c *procCtx) Value(key any) any {
	switch key.(type) {
	case tracepoint.ProcKey:
		return &c.p.Info
	case tracepoint.ClockKey:
		return c.p.clock
	case baggage.ContextKey:
		if c.carries {
			return &c.bag
		}
	}
	return c.Context.Value(key)
}
