// Package faultinject is a deterministic, seedable fault-injection layer
// for the tracer's report plane. It wraps net.Conn / net.Listener pairs so
// tests can drop, delay, truncate, and sever connections on a fixed
// schedule. (Simulated links fail through netsim.Network.SetRate
// directly.) Everything is driven by explicit operation counts
// and a seeded RNG, so a chaos test with a fixed seed replays the exact
// same fault sequence on every run — including under -race -count=N.
//
// The injector is shared state: one Injector configures a whole test's
// faults, wraps every connection it should afflict (directly via Wrap, or
// transparently via Dialer/Listener), and counts what it did (cuts,
// blackholed writes, failed dials) so tests can assert exact accounting.
package faultinject

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected is the error surfaced by operations the injector kills.
var ErrInjected = errors.New("faultinject: injected fault")

// Faults is a declarative fault schedule, applied per wrapped connection.
// Zero values disable each fault.
type Faults struct {
	// Seed fixes the RNG driving probabilistic faults. The same seed and
	// the same operation sequence produce the same faults.
	Seed int64

	// ReadDelay/WriteDelay pause before every corresponding operation.
	ReadDelay  time.Duration
	WriteDelay time.Duration

	// CutAfterWrites severs a connection when it performs its Nth write;
	// CutAfterReads likewise for reads. The cut closes the underlying
	// connection, so the peer observes EOF or a reset.
	CutAfterWrites int
	CutAfterReads  int

	// TruncateFinalWrite lets the first TruncateFinalWrite bytes of the
	// cutting write through before severing, leaving a truncated frame on
	// the peer's wire (only meaningful with CutAfterWrites).
	TruncateFinalWrite int

	// FailDials makes the next N dials through Dialer fail outright.
	FailDials int

	// DropWriteProb silently blackholes each write with this probability:
	// the writer sees success, the peer sees nothing.
	DropWriteProb float64
}

// Injector applies one Faults schedule to the connections it wraps.
type Injector struct {
	mu    sync.Mutex
	f     Faults
	rng   *rand.Rand
	conns map[*Conn]struct{}

	cuts          int64
	dials         int64
	failedDials   int64
	droppedWrites int64
}

// New returns an injector applying the given fault schedule.
func New(f Faults) *Injector {
	return &Injector{
		f:     f,
		rng:   rand.New(rand.NewSource(f.Seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// faults returns the current schedule (Dialer consumes FailDials).
func (in *Injector) faults() Faults {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.f
}

// chance draws a seeded Bernoulli sample.
func (in *Injector) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

// Wrap returns c instrumented with the injector's fault schedule.
func (in *Injector) Wrap(c net.Conn) *Conn {
	fc := &Conn{Conn: c, in: in}
	in.mu.Lock()
	in.conns[fc] = struct{}{}
	in.mu.Unlock()
	return fc
}

// Dialer wraps a dial function so dial-failure faults apply and successful
// dials return wrapped connections. A nil dial uses net.Dial("tcp", addr).
func (in *Injector) Dialer(dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return func(addr string) (net.Conn, error) {
		in.mu.Lock()
		in.dials++
		fail := in.f.FailDials > 0
		if fail {
			in.f.FailDials--
			in.failedDials++
		}
		in.mu.Unlock()
		if fail {
			return nil, ErrInjected
		}
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return in.Wrap(c), nil
	}
}

// Listener wraps ln so accepted connections carry the fault schedule.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// CutAll severs every live wrapped connection immediately (a bus outage)
// and reports how many it cut.
func (in *Injector) CutAll() int {
	in.mu.Lock()
	conns := make([]*Conn, 0, len(in.conns))
	for c := range in.conns {
		conns = append(conns, c)
	}
	in.mu.Unlock()
	n := 0
	for _, c := range conns {
		if c.sever() {
			n++
		}
	}
	return n
}

// Cuts returns the number of connections the injector has severed.
func (in *Injector) Cuts() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cuts
}

// Dials returns total and failed dial counts through Dialer.
func (in *Injector) Dials() (total, failed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dials, in.failedDials
}

// DroppedWrites returns the number of writes silently blackholed.
func (in *Injector) DroppedWrites() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.droppedWrites
}

// forget drops a severed connection from the live set.
func (in *Injector) forget(c *Conn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.cuts++
	in.mu.Unlock()
}

// Conn is a net.Conn with faults applied to its reads and writes.
type Conn struct {
	net.Conn
	in *Injector

	mu     sync.Mutex
	reads  int
	writes int
	cut    bool
}

// sever closes the underlying connection and marks the wrapper dead.
// Reports whether this call performed the cut.
func (c *Conn) sever() bool {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return false
	}
	c.cut = true
	c.mu.Unlock()
	c.Conn.Close()
	c.in.forget(c)
	return true
}

// Close closes the underlying connection (an orderly close, not a cut).
func (c *Conn) Close() error {
	c.mu.Lock()
	already := c.cut
	c.cut = true
	c.mu.Unlock()
	if !already {
		c.in.mu.Lock()
		delete(c.in.conns, c)
		c.in.mu.Unlock()
	}
	return c.Conn.Close()
}

func (c *Conn) Read(p []byte) (int, error) {
	f := c.in.faults()
	if f.ReadDelay > 0 {
		time.Sleep(f.ReadDelay)
	}
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	c.reads++
	cutNow := f.CutAfterReads > 0 && c.reads >= f.CutAfterReads
	c.mu.Unlock()
	if cutNow {
		c.sever()
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	f := c.in.faults()
	if f.WriteDelay > 0 {
		time.Sleep(f.WriteDelay)
	}
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	c.writes++
	cutNow := f.CutAfterWrites > 0 && c.writes >= f.CutAfterWrites
	c.mu.Unlock()
	if cutNow {
		// Leak a truncated prefix onto the wire, then sever mid-frame.
		if n := f.TruncateFinalWrite; n > 0 && n < len(p) {
			c.Conn.Write(p[:n])
		}
		c.sever()
		return 0, ErrInjected
	}
	if c.in.chance(f.DropWriteProb) {
		c.in.mu.Lock()
		c.in.droppedWrites++
		c.in.mu.Unlock()
		return len(p), nil // blackhole: writer believes it succeeded
	}
	return c.Conn.Write(p)
}
