package netsim

import (
	"fmt"
	"strings"
	"time"
)

// TopologyConfig sizes a rack/pod datacenter topology. Hosts are grouped
// into racks behind a shared top-of-rack uplink; racks are grouped into
// pods behind a shared pod uplink. Either aggregation layer can be
// disabled by leaving its rate zero, in which case traffic that would
// cross it is point-to-point (the flat small-testbed model).
type TopologyConfig struct {
	// Racks and HostsPerRack size the topology (both required > 0).
	Racks        int
	HostsPerRack int
	// RacksPerPod groups racks into pods (default: all racks in one pod).
	RacksPerPod int

	// Per-host capacities; defaults are the testbed's 1 Gbit NIC and
	// commodity disk.
	NICRate  float64
	DiskRate float64

	// RackUplink is the per-direction capacity of each top-of-rack
	// uplink. Zero disables the rack layer entirely (flat network).
	RackUplink float64
	// PodUplink is the per-direction capacity of each pod uplink. Zero
	// disables the pod/core layer (single-pod routing).
	PodUplink float64

	// HostLatency is the fixed one-way message latency of every host.
	// Zero is allowed and means latency-free links (transfers still take
	// bandwidth time).
	HostLatency time.Duration

	// NamePrefix prefixes every generated host name (default "h"). Host
	// names are "<prefix>r<rack>n<idx>"; the prefix must not contain
	// '/', whitespace, or be empty after trimming, since cluster process
	// keys are "host/proc".
	NamePrefix string
}

// Topology is a built rack/pod fabric: the hosts in deterministic order
// plus their interned names and placement metadata, computed once at build
// time so scenario code never formats a host name on a hot path.
type Topology struct {
	Net *Network
	Cfg TopologyConfig

	hosts []*Host
	names []string
}

// BuildTopology registers cfg.Racks * cfg.HostsPerRack hosts (and the
// rack/pod aggregation links) on the network. It panics on invalid
// configuration or name collisions with already-registered links, making
// double registration of a topology loud.
func BuildTopology(n *Network, cfg TopologyConfig) *Topology {
	if cfg.Racks <= 0 || cfg.HostsPerRack <= 0 {
		panic(fmt.Sprintf("netsim: topology needs Racks > 0 and HostsPerRack > 0 (got %d, %d)",
			cfg.Racks, cfg.HostsPerRack))
	}
	if cfg.RacksPerPod < 0 {
		panic(fmt.Sprintf("netsim: negative RacksPerPod %d", cfg.RacksPerPod))
	}
	if cfg.HostLatency < 0 {
		panic(fmt.Sprintf("netsim: negative HostLatency %v", cfg.HostLatency))
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "h"
	}
	if strings.ContainsAny(cfg.NamePrefix, "/ \t\n") || strings.TrimSpace(cfg.NamePrefix) == "" {
		panic(fmt.Sprintf("netsim: bad host name prefix %q", cfg.NamePrefix))
	}
	if cfg.NICRate == 0 {
		cfg.NICRate = Gbit
	}
	if cfg.DiskRate == 0 {
		cfg.DiskRate = DiskRate
	}
	if cfg.RacksPerPod == 0 || cfg.RacksPerPod > cfg.Racks {
		cfg.RacksPerPod = cfg.Racks
	}

	t := &Topology{
		Net:   n,
		Cfg:   cfg,
		hosts: make([]*Host, 0, cfg.Racks*cfg.HostsPerRack),
		names: make([]string, 0, cfg.Racks*cfg.HostsPerRack),
	}
	pods := (cfg.Racks + cfg.RacksPerPod - 1) / cfg.RacksPerPod
	podUp := make([]*Link, pods)
	podDown := make([]*Link, pods)
	if cfg.PodUplink > 0 && pods > 1 {
		for p := 0; p < pods; p++ {
			podUp[p] = n.AddLink(fmt.Sprintf("%spod%02d.up", cfg.NamePrefix, p), cfg.PodUplink)
			podDown[p] = n.AddLink(fmt.Sprintf("%spod%02d.down", cfg.NamePrefix, p), cfg.PodUplink)
		}
	}
	for r := 0; r < cfg.Racks; r++ {
		pod := r / cfg.RacksPerPod
		var rackUp, rackDown *Link
		if cfg.RackUplink > 0 {
			rackUp = n.AddLink(fmt.Sprintf("%srack%03d.up", cfg.NamePrefix, r), cfg.RackUplink)
			rackDown = n.AddLink(fmt.Sprintf("%srack%03d.down", cfg.NamePrefix, r), cfg.RackUplink)
		}
		for i := 0; i < cfg.HostsPerRack; i++ {
			name := fmt.Sprintf("%sr%03dn%03d", cfg.NamePrefix, r, i)
			h := n.NewHost(name, cfg.NICRate, cfg.DiskRate)
			h.Latency = cfg.HostLatency
			h.rack = r
			h.pod = pod
			h.rackUp, h.rackDown = rackUp, rackDown
			h.podUp, h.podDown = podUp[pod], podDown[pod]
			t.hosts = append(t.hosts, h)
			t.names = append(t.names, name)
		}
	}
	return t
}

// Host returns the i-th host in build order.
func (t *Topology) Host(i int) *Host { return t.hosts[i] }

// Hosts returns all hosts in build order (shared slice; do not mutate).
func (t *Topology) Hosts() []*Host { return t.hosts }

// Names returns all host names in build order (shared slice; do not
// mutate).
func (t *Topology) Names() []string { return t.names }
