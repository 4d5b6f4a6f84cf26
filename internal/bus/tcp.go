package bus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// This file implements the distributed form of the message bus: the
// paper's central pub/sub server (§5) that connects per-process agents to
// the query frontend across machine boundaries. A Server relays framed
// (topic, payload) messages between connections; a Link bridges a remote
// connection onto a process's local Bus, marshaling messages with a
// caller-supplied codec. Topics flow one direction per process (control:
// frontend -> agents; results: agents -> frontend), so bridging cannot
// loop.

// Codec translates between in-memory bus messages and wire payloads.
//
// Append appends msg's payload to dst and returns the extended slice, as
// encoding.BinaryAppender does; it retains neither dst nor msg, so a Link
// encodes every message into one buffer it reuses. An error means msg is
// not a message the codec carries.
//
// Decoder returns a new decoding function. A Link takes one for each
// connection and calls it only from that connection's receive loop, with
// payloads read into one buffer the loop reuses. The message it returns
// may borrow the payload and memory the function reuses at its next call:
// it is lent to the bus's handlers for one delivery (see Link).
type Codec interface {
	Append(dst []byte, msg any) ([]byte, error)
	Decoder() func(payload []byte) (any, error)
}

// Frame protocol errors. A frame error poisons only the connection it
// arrived on; the server drops that connection and keeps relaying for
// everyone else.
var (
	errEmptyTopic       = errors.New("bus: zero-length topic")
	errOversizedTopic   = errors.New("bus: oversized topic")
	errOversizedPayload = errors.New("bus: oversized payload")
)

// frame layout: uvarint topic length, topic, uvarint payload length,
// payload.
func writeFrame(w *bufio.Writer, topic string, payload []byte) error {
	if len(topic) == 0 {
		return errEmptyTopic
	}
	// The length headers are appended to the writer's own free space, so
	// a frame costs no allocation.
	if _, err := w.Write(binary.AppendUvarint(w.AvailableBuffer(), uint64(len(topic)))); err != nil {
		return err
	}
	if _, err := w.WriteString(topic); err != nil {
		return err
	}
	if _, err := w.Write(binary.AppendUvarint(w.AvailableBuffer(), uint64(len(payload)))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// maxFrame bounds a payload and maxTopic a topic; the topics in use are at
// most a few hundred bytes. Both are checked before anything is sized from
// a header.
const (
	maxFrame = 64 << 20
	maxTopic = 1 << 10
)

// readFrame reads one frame into buf's storage, grown as needed, and
// returns it: the topic is frame[:tlen] and the payload frame[tlen:]. A
// caller that passes back the frame it got reads every frame into the same
// memory; a nil buf reads each into memory of its own.
func readFrame(r *bufio.Reader, buf []byte) (frame []byte, tlen int, err error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, errEmptyTopic
	}
	if n > maxTopic {
		return nil, 0, errOversizedTopic
	}
	tlen = int(n)
	buf = slices.Grow(buf[:0], tlen)[:tlen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, err
	}
	plen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, err
	}
	if plen > maxFrame {
		return nil, 0, errOversizedPayload
	}
	// Past its first MiB a payload's memory grows with the bytes that
	// arrive, so a header that claims a large payload costs only what
	// follows it. A buffer that already holds the frame is read in one go.
	for total := tlen + int(plen); len(buf) < total; {
		buf = slices.Grow(buf, min(total-len(buf), max(len(buf), 1<<20)))
		k, err := io.ReadFull(r, buf[len(buf):min(total, cap(buf))])
		if buf = buf[:len(buf)+k]; err == io.EOF && len(buf) > tlen {
			err = io.ErrUnexpectedEOF // the frame's payload began
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return buf, tlen, nil
}

// StatusTopic is reserved on the server: a frame sent to it is answered —
// to the sending connection only — with a frame on the same topic whose
// payload is the server's StatusText. It gives every deployment a text
// introspection endpoint on the port it already has open.
const StatusTopic = "pt.bus.status"

// SubscribeTopic is reserved on the server: a link announces its receive
// topics by sending one frame to it (payload: newline-separated topic
// list, empty for none). The server then relays only matching topics to
// that connection, and parks frames that currently have no live
// subscriber in a bounded per-topic retention buffer flushed to the next
// matching subscriber — so a report replayed while the frontend is itself
// still reconnecting is parked, not lost. Connections that never announce
// (raw protocol peers) receive everything, as before.
const SubscribeTopic = "pt.bus.sub"

// retainPerTopic bounds the per-topic retention buffer of frames parked
// while no subscriber is connected; overflow evicts the oldest frame and
// counts it in bus.server.retained.dropped.
const retainPerTopic = 64

// maxQueuedBytes is the per-connection outbound queue limit, in bytes of
// memory its queued frames hold (see frame.size); a subscriber lagging
// further than this is disconnected rather than allowed to stall the
// whole relay (slow-consumer cutoff).
const maxQueuedBytes = 64 << 20

// A connection's reader keeps up to relayFree frame buffers for reuse,
// none larger than relayKeep bytes. Eight is what a burst needs: a worker
// flushing eight standing queries has eight reports in flight at once,
// where a single query's link has at most two.
const relayFree, relayKeep = 8, 1 << 20

// relayBuf is the memory one received frame was read into, shared by
// every queue and parking spot that holds the frame. refs counts the
// holders; the last release hands the buffer back to free, its reader's
// free list, unless the list is full or the buffer too large to keep.
type relayBuf struct {
	b    []byte
	refs atomic.Int32
	free chan *relayBuf
}

// hold adds a holder. A frame the server made itself has no buffer, and
// holding or releasing it does nothing.
func (rb *relayBuf) hold() {
	if rb != nil {
		rb.refs.Add(1)
	}
}

func (rb *relayBuf) release() {
	if rb != nil && rb.refs.Add(-1) == 0 && cap(rb.b) <= relayKeep {
		select {
		case rb.free <- rb:
		default:
		}
	}
}

// frame is one queued or parked message. depth is the per-topic depth
// gauge a queued frame was counted into, decremented when the frame
// drains; buf is the memory payload lives in.
type frame struct {
	topic   string
	payload []byte
	depth   *telemetry.Gauge
	buf     *relayBuf
}

// size is the memory a queued frame holds, and what the slow-consumer
// cutoff charges for it: its whole buffer, or the payload of a frame the
// server made itself.
func (f frame) size() int64 {
	if f.buf != nil {
		return int64(cap(f.buf.b))
	}
	return int64(len(f.payload))
}

// topicGauge is a relayed topic's name, which a frame's topic bytes find
// without allocating, and its queued-frame gauge.
type topicGauge struct {
	name  string
	depth *telemetry.Gauge
}

// serverConn is one relay connection: frames relayed to it are queued and
// drained by a dedicated writer goroutine, so one slow subscriber delays
// only itself. queuedBytes is the memory its queued frames hold.
type serverConn struct {
	conn net.Conn

	// subs is the connection's announced receive-topic set, nil until the
	// peer sends a SubscribeTopic frame (nil = receive everything).
	// Guarded by the Server's mu, not the connection's.
	subs map[string]bool

	// free and targets belong to the connection's reader: the buffers its
	// frames are read into once no one holds them, and the scratch it
	// lists a frame's destinations in.
	free    chan *relayBuf
	targets []*serverConn

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []frame
	queuedBytes int64
	closed      bool
}

// shut marks the connection closed, wakes its writer and closes the socket.
func (sc *serverConn) shut() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Signal()
	sc.mu.Unlock()
	sc.conn.Close()
}

// enqueue appends a frame, disconnecting the consumer if its lag exceeds
// maxQueuedBytes. Reports whether the frame was accepted; an accepted
// frame holds its buffer until dequeued releases it.
func (sc *serverConn) enqueue(f frame) bool {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return false
	}
	if sc.queuedBytes+f.size() > maxQueuedBytes {
		sc.closed = true
		sc.cond.Signal()
		sc.mu.Unlock()
		sc.conn.Close()
		return false
	}
	f.buf.hold()
	sc.queue = append(sc.queue, f)
	sc.queuedBytes += f.size()
	sc.cond.Signal()
	sc.mu.Unlock()
	return true
}

// Server is the central pub/sub relay: every frame received from one
// connection is forwarded to the other connections that announced its
// topic (see SubscribeTopic), asynchronously via per-connection outbound
// queues; a frame no connection wants is parked for the next subscriber.
type Server struct {
	ln net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]*serverConn
	depths   map[string]topicGauge // per relayed topic
	retained map[string][]frame    // parked frames awaiting a subscriber
	done     bool

	tel         *telemetry.Registry
	frames      *telemetry.Counter // frames received
	bytes       *telemetry.Counter // payload bytes received
	queued      *telemetry.Gauge   // outbound frames queued across all conns
	lag         *telemetry.Gauge   // memory queued frames hold across all conns
	connsG      *telemetry.Gauge   // live connections
	dropped     *telemetry.Counter // slow-consumer disconnects
	badFrames   *telemetry.Counter // malformed/truncated inbound frames
	retainedG   *telemetry.Gauge   // frames parked awaiting a subscriber
	retainDrops *telemetry.Counter // parked frames evicted by the cap
}

// Serve starts a pub/sub server on addr (e.g. "127.0.0.1:0") and returns
// it; the listener address is available via Addr.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	tel := telemetry.NewRegistry()
	s := &Server{
		ln:          ln,
		conns:       make(map[net.Conn]*serverConn),
		depths:      make(map[string]topicGauge),
		retained:    make(map[string][]frame),
		tel:         tel,
		frames:      tel.Counter("bus.server.frames"),
		bytes:       tel.Counter("bus.server.bytes"),
		queued:      tel.Gauge("bus.server.queued.frames"),
		lag:         tel.Gauge("bus.server.queued.bytes"),
		connsG:      tel.Gauge("bus.server.conns"),
		dropped:     tel.Counter("bus.server.dropped.conns"),
		badFrames:   tel.Counter("bus.server.badframes"),
		retainedG:   tel.Gauge("bus.server.retained"),
		retainDrops: tel.Counter("bus.server.retained.dropped"),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Telemetry returns the server's metric registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// StatusText renders the server's health as an aligned text table.
func (s *Server) StatusText() string {
	return fmt.Sprintf("bus server %s\n\n%s", s.Addr(), s.tel.Snapshot().Render())
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		sc := &serverConn{conn: conn, free: make(chan *relayBuf, relayFree)}
		sc.cond = sync.NewCond(&sc.mu)
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = sc
		s.mu.Unlock()
		s.connsG.Add(1)
		go s.writeLoop(sc)
		go s.serveConn(sc)
	}
}

// writeLoop drains one connection's outbound queue. The queue and the
// batch being written swap places, so neither is regrown per batch.
func (s *Server) writeLoop(sc *serverConn) {
	w := bufio.NewWriter(sc.conn)
	var spare []frame
	for {
		sc.mu.Lock()
		for len(sc.queue) == 0 && !sc.closed {
			sc.cond.Wait()
		}
		if len(sc.queue) == 0 { // closed and drained
			sc.mu.Unlock()
			return
		}
		batch := sc.queue
		sc.queue = spare
		sc.mu.Unlock()
		for i, f := range batch {
			err := writeFrame(w, f.topic, f.payload)
			s.dequeued(sc, batch[i:i+1])
			if err != nil {
				sc.shut()
				sc.mu.Lock()
				rest := sc.queue
				sc.queue = nil
				sc.mu.Unlock()
				s.dequeued(sc, batch[i+1:])
				s.dequeued(sc, rest)
				return
			}
		}
		clear(batch) // let go of the payloads
		spare = batch[:0]
	}
}

// dequeued retires frames from a connection's queue accounting, written or
// dropped, and releases their buffers.
func (s *Server) dequeued(sc *serverConn, frames []frame) {
	var held int64
	for _, f := range frames {
		held += f.size()
		s.account(f, -1)
		f.buf.release()
	}
	sc.mu.Lock()
	sc.queuedBytes -= held
	sc.mu.Unlock()
}

// account counts k copies of a frame into, or with k < 0 out of, the
// queued-frame gauges.
func (s *Server) account(f frame, k int64) {
	f.depth.Add(k)
	s.queued.Add(k)
	s.lag.Add(k * f.size())
}

// serveConn reads and routes one connection's frames. Each frame is read
// into a buffer from the connection's free list, or a new one when the
// list is empty, and the buffer counts its holders: the reader while it
// routes the frame, each queue that accepts it, and its parking spot if
// no one subscribes. The last to let go returns it to the list, so a
// steady stream of frames is relayed in memory the connection reuses. A
// frame much smaller than the buffer it landed in is copied out instead,
// so no queued frame pins much more memory than its own bytes.
func (s *Server) serveConn(sc *serverConn) {
	conn := sc.conn
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connsG.Add(-1)
		sc.shut()
	}()
	r := bufio.NewReader(conn)
	for {
		// A frame takes its buffer once its first byte is in, so a
		// connection waiting for one holds none; an error here is
		// readFrame's to report.
		r.Peek(1)
		var rb *relayBuf
		select {
		case rb = <-sc.free:
		default:
			rb = &relayBuf{free: sc.free}
		}
		buf, tlen, err := readFrame(r, rb.b)
		if err != nil {
			// A clean EOF is an orderly disconnect; anything else is a
			// malformed or truncated frame. Either way only this
			// connection dies — the relay keeps serving everyone else.
			if !errors.Is(err, io.EOF) {
				s.badFrames.Inc()
			}
			return
		}
		if cap(buf) > 2*max(len(buf), 64) {
			// A reused buffer over twice the frame's size goes back for a
			// larger frame, and this one is copied out to memory its own
			// size, so no frame holds much more memory than it has bytes.
			select {
			case sc.free <- rb:
			default:
			}
			rb, buf = &relayBuf{free: sc.free}, bytes.Clone(buf)
		}
		rb.b = buf
		rb.refs.Store(1)
		s.route(sc, buf[:tlen], frame{payload: buf[tlen:], buf: rb})
		rb.release()
	}
}

// route relays one frame received from sc to the connections that want
// its topic, or parks it. A topic relayed before brings its interned name
// and its depth gauge, so a known topic costs no string and no second
// lookup.
func (s *Server) route(sc *serverConn, topic []byte, f frame) {
	s.frames.Inc()
	s.bytes.Add(int64(len(f.payload)))
	switch string(topic) {
	case StatusTopic:
		s.relay(frame{topic: StatusTopic, payload: []byte(s.StatusText())}, []*serverConn{sc})
		return
	case SubscribeTopic:
		s.subscribe(sc, f.payload)
		return
	}
	s.mu.Lock()
	tg, known := s.depths[string(topic)]
	f.topic, f.depth = tg.name, tg.depth
	if !known {
		f.topic = string(topic)
	}
	targets := sc.targets[:0]
	for other, osc := range s.conns {
		if other == sc.conn {
			continue
		}
		if osc.subs != nil && !osc.subs[f.topic] {
			continue
		}
		targets = append(targets, osc)
	}
	sc.targets = targets
	if len(targets) == 0 {
		s.retainLocked(f)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.relay(f, targets)
	clear(targets)
}

// retainLocked parks a frame that currently has no subscriber, evicting
// the oldest parked frame when the per-topic cap is hit. A parked frame
// holds its buffer until it is evicted or flushed. Caller holds mu.
func (s *Server) retainLocked(f frame) {
	q := s.retained[f.topic]
	if len(q) >= retainPerTopic {
		q[0].buf.release()
		q = append(q[:0], q[1:]...)
		s.retainDrops.Inc()
		s.retainedG.Add(-1)
	}
	f.buf.hold()
	s.retained[f.topic] = append(q, f)
	s.retainedG.Add(1)
}

// subscribe records a connection's announced receive topics and flushes
// any frames parked for them, oldest first.
func (s *Server) subscribe(sc *serverConn, payload []byte) {
	subs := make(map[string]bool)
	for _, t := range strings.Split(string(payload), "\n") {
		if t != "" {
			subs[t] = true
		}
	}
	var backlog [][]frame
	s.mu.Lock()
	sc.subs = subs
	for t := range subs {
		if q := s.retained[t]; len(q) > 0 {
			delete(s.retained, t)
			backlog = append(backlog, q)
		}
	}
	s.mu.Unlock()
	for _, q := range backlog {
		s.retainedG.Add(-int64(len(q)))
		for _, f := range q {
			s.relay(f, []*serverConn{sc})
			f.buf.release()
		}
	}
}

// relay enqueues one frame onto each target connection, maintaining queue
// depth and lag accounting.
func (s *Server) relay(f frame, targets []*serverConn) {
	if f.depth == nil { // a topic not relayed before, or a frame the server made
		s.mu.Lock()
		tg, ok := s.depths[f.topic]
		if !ok {
			tg = topicGauge{f.topic, s.tel.Gauge("bus.server.depth." + f.topic)}
			s.depths[f.topic] = tg
		}
		s.mu.Unlock()
		f.depth = tg.depth
	}
	for _, sc := range targets {
		s.account(f, 1)
		if !sc.enqueue(f) {
			s.account(f, -1)
			s.dropped.Inc()
		}
	}
}

// Close shuts the server down and drops all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	for _, sc := range s.conns {
		sc.shut()
	}
	s.mu.Unlock()
	s.ln.Close()
}

// FetchServerStatus dials a pub/sub server, requests its status text, and
// returns it. It is the client side of the StatusTopic endpoint, used by
// cmd/ptstat. The connection is closed on every exit path, including a
// read that times out after a successful dial.
func FetchServerStatus(addr string, timeout time.Duration) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return "", err
	}
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, StatusTopic, nil); err != nil {
		return "", err
	}
	r := bufio.NewReader(conn)
	for {
		frame, tlen, err := readFrame(r, nil)
		if err != nil {
			return "", err
		}
		if string(frame[:tlen]) == StatusTopic {
			return string(frame[tlen:]), nil
		}
	}
}

// ErrLinkDown is returned by Link.Send while the link is disconnected.
var ErrLinkDown = errors.New("bus: link down")

// Backoff and retention defaults for reconnecting links.
const (
	DefaultBackoffBase = 20 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// LinkOptions configures a Link's resilience behavior. The zero value is
// the original fail-fast link: the first I/O error kills it permanently.
type LinkOptions struct {
	// Reconnect enables automatic redial with exponential backoff and
	// seeded jitter after the connection fails. Local subscriptions are
	// kept across outages, so bridging resumes (resubscription) as soon
	// as a dial succeeds.
	Reconnect bool

	// BackoffBase/BackoffMax bound the redial schedule: the nth attempt
	// waits base*2^n plus up to 50% jitter, capped at max. Zero values
	// take the defaults above.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// JitterSeed fixes the jitter RNG so chaos tests replay exactly.
	JitterSeed int64

	// Dial overrides the dialer (fault injectors wrap connections here).
	// Nil dials plain TCP.
	Dial func(addr string) (net.Conn, error)

	// OnUp is called (from the reconnect goroutine) after each successful
	// reconnect, with the total reconnect count. Callers replay buffered
	// traffic here.
	OnUp func(reconnects int64)

	// OnDrop is called for each locally published message on a send topic
	// that could not be forwarded (link down, or the write failed).
	// Callers use it to retain reports for replay.
	OnDrop func(topic string, msg any)

	// Telemetry, when set, is where the link counts: into its
	// "bus.link.reconnects" and "bus.link.drops" counters, and every
	// snapshot carries a "bus.link.connected" gauge read from Connected.
	Telemetry *telemetry.Registry
}

// Link bridges a process's local Bus to a remote pub/sub server: messages
// published locally on the send topics are marshaled and forwarded;
// frames received for the recv topics are decoded and published
// locally. With LinkOptions.Reconnect the link survives server outages:
// it redials with exponential backoff + jitter, resumes bridging, and
// reports messages lost meanwhile via OnDrop. Close the link to
// disconnect.
//
// A received message is lent to the bus's handlers for one delivery: the
// link reads every frame of a connection into one buffer and decodes it
// with one Codec decoder, and reuses both for the next frame once Publish
// has returned. A handler that keeps any part of a received message past
// its return must copy it; an advice.Merger copies what it keeps. OnDrop
// sees only messages published on the send topics, so it never sees a
// lent one while no link on the bus sends a topic that a link on it
// receives, which bridging each topic one way per process rules out.
type Link struct {
	addr    string
	codec   Codec
	bus     *Bus
	opts    LinkOptions
	recv    []string          // announced to the server on every (re)connect
	recvSet map[string]string // topic -> itself: a frame's bytes find the string to publish under
	subs    []Subscription

	mu           sync.Mutex
	conn         net.Conn
	w            *bufio.Writer
	buf          []byte // Send's encode buffer, reused for every frame
	gen          int    // connection generation; stale recv loops no-op
	closed       bool
	reconnecting bool

	// reconnects and drops point at the registry's counters when
	// LinkOptions.Telemetry is set, and at the link's own otherwise.
	reconnects, drops       *telemetry.Counter
	ownReconnects, ownDrops telemetry.Counter
}

// Connect dials the server and starts bridging with fail-fast semantics
// (no reconnection) — the historical behavior.
func Connect(b *Bus, addr string, codec Codec, send, recv []string) (*Link, error) {
	return ConnectOptions(b, addr, codec, send, recv, LinkOptions{})
}

// ConnectOptions dials the server and starts bridging with the given
// resilience options. The initial dial must succeed; reconnection applies
// to failures after that.
func ConnectOptions(b *Bus, addr string, codec Codec, send, recv []string, opts LinkOptions) (*Link, error) {
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = DefaultBackoffBase
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = DefaultBackoffMax
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := opts.Dial(addr)
	if err != nil {
		return nil, err
	}
	l := &Link{
		addr:    addr,
		codec:   codec,
		bus:     b,
		opts:    opts,
		recv:    append([]string(nil), recv...),
		recvSet: make(map[string]string, len(recv)),
		conn:    conn,
		w:       bufio.NewWriter(conn),
	}
	for _, t := range recv {
		l.recvSet[t] = t
	}
	if err := l.announce(l.w); err != nil {
		conn.Close()
		return nil, err
	}
	l.reconnects, l.drops = &l.ownReconnects, &l.ownDrops
	if tel := opts.Telemetry; tel != nil {
		l.reconnects, l.drops = tel.Counter("bus.link.reconnects"), tel.Counter("bus.link.drops")
		tel.Source(func(s *telemetry.Snapshot) {
			// Links sharing a registry share the gauge: 1 while any is up.
			up := s.Gauges["bus.link.connected"]
			if l.Connected() {
				up = 1
			}
			s.Gauges["bus.link.connected"] = up
		})
	}

	for _, topic := range send {
		topic := topic
		sub := b.Subscribe(topic, func(msg any) {
			if err := l.Send(topic, msg); err != nil && !errors.Is(err, errUnmarshalable) {
				l.noteDrop(topic, msg)
			}
		})
		l.subs = append(l.subs, sub)
	}
	go l.recvLoop(conn, 0)
	return l, nil
}

// announce tells the server which topics this link wants relayed, so
// frames published while no subscriber is connected are parked for the
// next one instead of vanishing.
func (l *Link) announce(w *bufio.Writer) error {
	return writeFrame(w, SubscribeTopic, []byte(strings.Join(l.recv, "\n")))
}

// errUnmarshalable marks local-only messages the codec cannot carry; they
// are not link losses.
var errUnmarshalable = errors.New("bus: message not marshalable")

// Send marshals and forwards one message to the server immediately,
// bypassing the local bus. It returns ErrLinkDown (or the write error) if
// the message did not reach the socket; callers replaying buffered
// traffic use the error to re-buffer. Send does not invoke OnDrop.
//
// The payload is encoded into the link's own buffer under the lock that
// serializes frame writes, so concurrent sends take turns and a steady
// stream of frames allocates nothing once the buffer has grown to the
// largest of them.
func (l *Link) Send(topic string, msg any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	payload, err := l.codec.Append(l.buf[:0], msg)
	if err != nil {
		return errUnmarshalable
	}
	l.buf = payload
	if l.closed || l.conn == nil {
		return ErrLinkDown
	}
	if err := writeFrame(l.w, topic, payload); err != nil {
		l.connDownLocked(l.conn)
		return err
	}
	return nil
}

// noteDrop records one undeliverable send-topic message.
func (l *Link) noteDrop(topic string, msg any) {
	l.drops.Inc()
	if l.opts.OnDrop != nil {
		l.opts.OnDrop(topic, msg)
	}
}

// recvLoop reads frames from one connection until it fails, then triggers
// reconnection. gen identifies the connection so a stale loop cannot tear
// down its successor. The loop's frame buffer and decoder are its own, so
// a successor never reuses them while this loop is still delivering.
func (l *Link) recvLoop(conn net.Conn, gen int) {
	r := bufio.NewReader(conn)
	decode := l.codec.Decoder()
	var frame []byte
	for {
		var tlen int
		var err error
		frame, tlen, err = readFrame(r, frame)
		if err != nil {
			l.mu.Lock()
			if l.gen == gen {
				l.connDownLocked(conn)
			}
			l.mu.Unlock()
			return
		}
		topic, ok := l.recvSet[string(frame[:tlen])]
		if !ok {
			continue
		}
		msg, err := decode(frame[tlen:])
		if err != nil {
			continue
		}
		l.bus.Publish(topic, msg)
	}
}

// connDownLocked transitions the link to disconnected (if conn is still
// current) and starts the reconnect loop when enabled. Caller holds l.mu.
func (l *Link) connDownLocked(conn net.Conn) {
	if l.conn != conn || l.conn == nil {
		return // already superseded
	}
	l.conn.Close()
	l.conn = nil
	l.w = nil
	l.gen++
	if l.opts.Reconnect && !l.closed && !l.reconnecting {
		l.reconnecting = true
		go l.reconnectLoop()
	}
}

// reconnectLoop redials with exponential backoff and seeded jitter until
// a dial succeeds or the link is closed.
func (l *Link) reconnectLoop() {
	rng := rand.New(rand.NewSource(l.opts.JitterSeed))
	backoff := l.opts.BackoffBase
	for {
		wait := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		time.Sleep(wait)
		l.mu.Lock()
		if l.closed {
			l.reconnecting = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()

		conn, err := l.opts.Dial(l.addr)
		if err != nil {
			if backoff *= 2; backoff > l.opts.BackoffMax {
				backoff = l.opts.BackoffMax
			}
			continue
		}
		w := bufio.NewWriter(conn)
		if err := l.announce(w); err != nil {
			conn.Close()
			if backoff *= 2; backoff > l.opts.BackoffMax {
				backoff = l.opts.BackoffMax
			}
			continue
		}
		l.mu.Lock()
		if l.closed {
			l.reconnecting = false
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conn = conn
		l.w = w
		l.gen++
		gen := l.gen
		l.reconnecting = false
		l.mu.Unlock()

		l.reconnects.Inc()
		go l.recvLoop(conn, gen)
		if l.opts.OnUp != nil {
			l.opts.OnUp(l.reconnects.Load())
		}
		return
	}
}

// Connected reports whether the link currently has a live connection.
func (l *Link) Connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil && !l.closed
}

// Reconnects returns how many times the link has reconnected. A link
// counting into a registry (LinkOptions.Telemetry) reads the registry's
// count, which every link sharing that registry adds to.
func (l *Link) Reconnects() int64 { return l.reconnects.Load() }

// Drops returns how many send-topic messages were lost to outages. A link
// counting into a registry reads the registry's count, as Reconnects does.
func (l *Link) Drops() int64 { return l.drops.Load() }

// Close stops bridging, disables reconnection, and closes the connection.
func (l *Link) Close() {
	for _, sub := range l.subs {
		l.bus.Unsubscribe(sub)
	}
	l.mu.Lock()
	l.closed = true
	conn := l.conn
	l.conn = nil
	l.w = nil
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}
