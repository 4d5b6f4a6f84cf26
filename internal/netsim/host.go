package netsim

import "time"

// Common capacity constants, in bytes per second.
const (
	Gbit        = 1e9 / 8 // 1 Gbit/s NIC in bytes/s
	HundredMbit = 1e8 / 8 // a limping 100 Mbit/s NIC
	DiskRate    = 150e6   // a commodity HDD: 150 MB/s sequential
	MB          = 1e6     // one megabyte
	GB          = 1e9     // one gigabyte
)

// Host bundles the resources of one simulated machine: a full-duplex NIC
// (independent tx and rx links) and a local disk. Hosts built by a
// Topology additionally carry their rack/pod position and the shared
// aggregation links their cross-rack traffic rides.
type Host struct {
	Name string
	net  *Network
	tx   *Link
	rx   *Link
	disk *Link

	// Latency is the fixed one-way message latency from/to this host.
	Latency time.Duration

	// Rack/pod placement, set by BuildTopology. rack is a global rack
	// index (unique across pods); the aggregation links are nil on flat
	// networks, in which case Send is point-to-point as before.
	rack, pod        int
	rackUp, rackDown *Link
	podUp, podDown   *Link
}

// NewHost registers a host's NIC and disk links on the network.
func (n *Network) NewHost(name string, nicRate, diskRate float64) *Host {
	return &Host{
		Name:    name,
		net:     n,
		tx:      n.AddLink(name+".tx", nicRate),
		rx:      n.AddLink(name+".rx", nicRate),
		disk:    n.AddLink(name+".disk", diskRate),
		Latency: 100 * time.Microsecond,
	}
}

// SetNICRate changes both directions of the host's NIC (fault injection).
func (h *Host) SetNICRate(rate float64) {
	h.net.SetRate(h.tx.Name, rate)
	h.net.SetRate(h.rx.Name, rate)
}

// SetDiskRate changes the host disk's capacity (fault injection: a
// limplock disk serves reads and writes at a crawl without failing).
func (h *Host) SetDiskRate(rate float64) { h.net.SetRate(h.disk.Name, rate) }

// Send transfers size bytes from h to dst, blocking until delivered.
// Loopback transfers (h == dst) skip the network. The transfer contends
// for h's transmit link and dst's receive link under max-min fairness;
// on a rack/pod topology, cross-rack traffic additionally rides the
// shared rack uplinks (and pod uplinks across pods), so aggregation
// oversubscription is modeled.
func (h *Host) Send(dst *Host, size float64) {
	if h == dst {
		return
	}
	h.net.env.Sleep(h.Latency)
	if h.rackUp == nil || dst.rackDown == nil || h.rack == dst.rack {
		h.net.Flow(size, h.tx, dst.rx)
		return
	}
	var path [6]*Link
	links := append(path[:0], h.tx, h.rackUp)
	if h.pod != dst.pod && h.podUp != nil && dst.podDown != nil {
		links = append(links, h.podUp, dst.podDown)
	}
	links = append(links, dst.rackDown, dst.rx)
	h.net.Flow(size, links...)
}

// DiskRead reads size bytes from the host's local disk.
func (h *Host) DiskRead(size float64) { h.net.Flow(size, h.disk) }

// DiskWrite writes size bytes to the host's local disk. Reads and writes
// share the disk's bandwidth.
func (h *Host) DiskWrite(size float64) { h.net.Flow(size, h.disk) }
