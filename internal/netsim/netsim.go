// Package netsim models shared resources — network links and disks — as a
// flow-level simulation with max-min fair bandwidth sharing.
//
// A Network holds named Links, each with a capacity in bytes per second. A
// transfer is a Flow over one or more links; at any instant every active flow
// receives its max-min fair share across the links it traverses (computed by
// water-filling). Flow blocks in virtual time until its bytes have been
// served. Link capacities can be changed at runtime, which is how faults such
// as a limping NIC (1Gbit -> 100Mbit) are injected.
//
// Disks are modeled the same way: a disk is a single-link resource, so
// concurrent reads and writes share its bandwidth processor-style.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/simtime"
)

// Link is a capacity-constrained resource (a NIC direction, a disk, ...).
type Link struct {
	Name string

	rate   float64 // bytes per second
	served float64 // cumulative bytes served through this link
	active int     // flows currently crossing this link

	// scratch state for the water-filling computation
	remCap   float64
	unfrozen int
	touched  bool
}

// Network simulates a set of links and the flows crossing them.
type Network struct {
	env  *simtime.Env
	mu   sync.Mutex
	wake *simtime.Cond // engine wakeup: new flow or rate change
	done *simtime.Cond // broadcast on flow completions

	links map[string]*Link
	flows []*flow // active flows; removal swaps the last one into the gap

	lastUpdate time.Duration
	running    bool

	// smallCutoff, when > 0, routes flows of at most that many bytes
	// through a closed-form service-time model instead of the shared
	// water-filling machinery. See SetSmallFlowCutoff.
	smallCutoff float64

	// scratchLinks and scratchFlows are reused across reshare rounds so
	// steady-state resharing allocates nothing.
	scratchLinks []*Link
	scratchFlows []*flow

	// Stats counts completed flows and served bytes, for tests and tools.
	completedFlows int64
	servedBytes    float64
}

type flow struct {
	remaining float64
	rate      float64
	links     []*Link // the flow's own copy of its path, in path when it fits
	path      [6]*Link
	finished  bool
}

// New creates an empty network bound to the simulation environment.
func New(env *simtime.Env) *Network {
	n := &Network{
		env:   env,
		links: make(map[string]*Link),
	}
	n.wake = env.NewCond(&n.mu)
	n.done = env.NewCond(&n.mu)
	return n
}

// AddLink registers a link with capacity rate bytes/second and returns it.
func (n *Network) AddLink(name string, rate float64) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %v for link %q", rate, name))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.links[name]; ok {
		panic(fmt.Sprintf("netsim: duplicate link %q", name))
	}
	l := &Link{Name: name, rate: rate}
	n.links[name] = l
	return l
}

// SetRate changes a link's capacity at runtime (fault injection). Active
// flows immediately see the new fair-share rates.
func (n *Network) SetRate(name string, rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %v for link %q", rate, name))
	}
	n.mu.Lock()
	l, ok := n.links[name]
	if !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("netsim: unknown link %q", name))
	}
	n.settleLocked()
	l.rate = rate
	n.reshareLocked()
	n.mu.Unlock()
	n.wake.Signal()
}

// LinkServed returns the cumulative bytes served through the named link
// (settling in-flight progress first), for per-host throughput plots.
func (n *Network) LinkServed(name string) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.settleLocked()
	if l, ok := n.links[name]; ok {
		return l.served
	}
	return 0
}

// Stats returns the number of completed flows and total bytes served.
func (n *Network) Stats() (flows int64, bytes float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.completedFlows, n.servedBytes
}

// SetSmallFlowCutoff makes flows of at most cutoff bytes bypass the shared
// water-filling machinery: the caller sleeps size divided by the slowest
// link's full capacity, and the bytes are accounted to the links instantly.
// Small control messages (RPC headers, heartbeats) are latency-dominated,
// so the approximation is tight while removing the per-flow reshare that
// otherwise makes thousands of tiny metadata RPCs against one host
// quadratic. Zero (the default) disables the cutoff; large data transfers
// always take the exact path.
func (n *Network) SetSmallFlowCutoff(cutoff float64) {
	n.mu.Lock()
	n.smallCutoff = cutoff
	n.mu.Unlock()
}

// Flow transfers size bytes across the given links, blocking in virtual time
// until complete. A flow over zero links (or zero bytes) completes instantly.
// Must be called from a managed goroutine.
func (n *Network) Flow(size float64, links ...*Link) {
	if size <= 0 || len(links) == 0 {
		return
	}
	if d, small := n.transfer(size, links); small {
		n.env.Sleep(d)
	}
}

// transfer serves one flow. At or under the small-flow cutoff it accounts
// the bytes at once and returns the service time for the caller to sleep
// with the network unlocked; otherwise it returns once the flow has been
// served at its fair share. links is only read, never kept.
func (n *Network) transfer(size float64, links []*Link) (d time.Duration, small bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.smallCutoff > 0 && size <= n.smallCutoff {
		rate := math.MaxFloat64
		for _, l := range links {
			if l.rate < rate {
				rate = l.rate
			}
			l.served += size
		}
		n.completedFlows++
		n.servedBytes += size
		return time.Duration(size / rate * float64(time.Second)), true
	}
	f := &flow{remaining: size}
	f.links = append(f.path[:0], links...)
	n.ensureEngineLocked()
	n.settleLocked()
	n.flows = append(n.flows, f)
	// A flow whose links carry no other traffic gets the bottleneck
	// capacity outright; the fair shares of every other flow are
	// unaffected, so the global reshare can be skipped. On a large
	// topology most transfers are isolated, which turns the O(flows x
	// links) water-filling into the rare case instead of the common one.
	isolated := true
	for _, l := range f.links {
		l.active++
		if l.active > 1 {
			isolated = false
		}
	}
	if isolated {
		rate := math.MaxFloat64
		for _, l := range f.links {
			if l.rate < rate {
				rate = l.rate
			}
		}
		f.rate = rate
	} else {
		n.reshareLocked()
	}
	n.wake.Signal()
	for !f.finished {
		n.done.Wait()
	}
	n.servedBytes += size
	return 0, false
}

// ensureEngineLocked starts the completion engine on first use.
func (n *Network) ensureEngineLocked() {
	if n.running {
		return
	}
	n.running = true
	n.lastUpdate = n.env.Now()
	n.env.Go(n.engine)
}

// engine advances flow progress and completes flows at their finish times,
// until the environment's teardown unwinds it out of one of its waits.
func (n *Network) engine() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		n.settleLocked()
		completed, needReshare := n.completeLocked()
		if completed > 0 {
			if needReshare {
				n.reshareLocked()
			}
			n.done.Broadcast()
		}
		if len(n.flows) == 0 {
			n.wake.Wait()
			n.lastUpdate = n.env.Now()
			continue
		}
		next := n.nextCompletionLocked()
		n.wake.WaitTimeout(next)
	}
}

// settleLocked accrues progress for all active flows since lastUpdate.
func (n *Network) settleLocked() {
	now := n.env.Now()
	elapsed := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	if elapsed <= 0 {
		return
	}
	for _, f := range n.flows {
		progressed := f.rate * elapsed
		f.remaining -= progressed
		for _, l := range f.links {
			l.served += progressed
		}
	}
}

// completeLocked finishes flows whose bytes are fully served. It reports
// whether any completed flow shared a link with still-active flows — only
// then do the survivors' fair shares change and a reshare is needed. It
// walks backwards, so the flow swapped into a gap has already been seen.
func (n *Network) completeLocked() (count int, needReshare bool) {
	const eps = 1e-6
	for i := len(n.flows) - 1; i >= 0; i-- {
		if f := n.flows[i]; f.remaining <= eps {
			f.finished = true
			last := len(n.flows) - 1
			n.flows[i], n.flows[last] = n.flows[last], nil
			n.flows = n.flows[:last]
			n.completedFlows++
			count++
			for _, l := range f.links {
				l.active--
				if l.active > 0 {
					needReshare = true
				}
			}
		}
	}
	return count, needReshare
}

// nextCompletionLocked returns the time until the earliest flow finish.
func (n *Network) nextCompletionLocked() time.Duration {
	min := math.MaxFloat64
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < min {
			min = t
		}
	}
	if min == math.MaxFloat64 {
		// No flow is receiving service; wait for a topology change.
		return time.Hour
	}
	d := time.Duration(min * float64(time.Second))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// reshareLocked recomputes max-min fair rates for all active flows by
// water-filling: repeatedly find the most-constrained link, freeze its flows
// at the fair share, subtract their demand, and recurse. Only links that
// active flows actually cross participate — on a 1000-host topology with a
// handful of concurrent transfers the thousands of idle host links cost
// nothing.
func (n *Network) reshareLocked() {
	links := n.scratchLinks[:0]
	flows := append(n.scratchFlows[:0], n.flows...)
	for _, f := range flows {
		f.rate = 0
		for _, l := range f.links {
			if !l.touched {
				l.touched = true
				l.remCap = l.rate
				l.unfrozen = 0
				links = append(links, l)
			}
			l.unfrozen++
		}
	}
	// unfrozen is the prefix of flows whose rate is still to be fixed; a
	// frozen flow is swapped out of it.
	for unfrozen := flows; len(unfrozen) > 0; {
		// Find the bottleneck link: minimum fair share among links with
		// unfrozen flows.
		var bottleneck *Link
		share := math.MaxFloat64
		for _, l := range links {
			if l.unfrozen == 0 {
				continue
			}
			s := l.remCap / float64(l.unfrozen)
			if s < share {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for i := 0; i < len(unfrozen); {
			f := unfrozen[i]
			if !slices.Contains(f.links, bottleneck) {
				i++
				continue
			}
			f.rate = share
			last := len(unfrozen) - 1
			unfrozen[i], unfrozen[last] = unfrozen[last], f
			unfrozen = unfrozen[:last]
			for _, l := range f.links {
				l.remCap -= share
				if l.remCap < 0 {
					l.remCap = 0
				}
				l.unfrozen--
			}
		}
	}
	for _, l := range links {
		l.touched = false
	}
	clear(flows) // finished flows must not stay reachable from the scratch
	n.scratchLinks, n.scratchFlows = links, flows[:0]
}
