package bus

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"strings"
	"testing"
)

// rawPeer speaks the frame protocol to a Server directly, with no Link in
// between, so a test sees exactly the bytes the relay forwards.
type rawPeer struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte
}

// dialRaw connects to srv and announces topics as the peer's receive
// set; with none, the peer receives nothing.
func dialRaw(t *testing.T, srv *Server, topics ...string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawPeer{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := writeFrame(p.w, SubscribeTopic, []byte(strings.Join(topics, "\n"))); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *rawPeer) send(topic string, payload []byte) error {
	return writeFrame(p.w, topic, payload)
}

// recv reads the next frame; topic and payload are the peer's buffer,
// valid until the next recv.
func (p *rawPeer) recv() (topic, payload []byte, err error) {
	frame, tlen, err := readFrame(p.r, p.buf)
	if err != nil {
		return nil, nil, err
	}
	p.buf = frame
	return frame[:tlen], frame[tlen:], nil
}

// serverConnOf returns the server's side of a raw peer's connection, once
// the server has taken in the peer's announcement.
func serverConnOf(t *testing.T, srv *Server, p *rawPeer) *serverConn {
	t.Helper()
	var sc *serverConn
	waitFor(t, "the peer's announcement", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, c := range srv.conns {
			if c.conn.RemoteAddr().String() == p.conn.LocalAddr().String() && c.subs != nil {
				sc = c
			}
		}
		return sc != nil
	})
	return sc
}

// relayPayload is the payload of the ith frame on a topic: bytes no
// other frame of the test carries, 1 to 16 KiB long, so the buffers a
// reader recycles trade frames of different sizes.
func relayPayload(topic string, i int) []byte {
	rng := rand.New(rand.NewSource(int64(i)<<8 | int64(topic[0])))
	b := make([]byte, 1<<10+rng.Intn(15<<10))
	rng.Read(b)
	return b
}

// fillSocket has pub send payload on topic, one frame after the server
// has read the last, until stuck reports that the subscriber's writer can
// no longer keep up, and returns how many frames that took.
func fillSocket(t *testing.T, srv *Server, pub *rawPeer, topic string, payload []byte, stuck func() bool) int {
	t.Helper()
	frames := func() int64 { return srv.Telemetry().Snapshot().Counters["bus.server.frames"] }
	sent := frames()
	for k := 0; ; k++ {
		if stuck() {
			return k
		}
		if k == 160 {
			t.Fatalf("a paused subscriber's socket took %d frames of %d bytes without filling", k, len(payload))
		}
		if err := pub.send(topic, payload); err != nil {
			t.Fatal(err)
		}
		sent++
		waitFor(t, "the frame read", func() bool { return frames() >= sent })
	}
}

// TestRelayBufferOutlivesEveryHolder: the server reads a connection's
// frames into buffers it reuses, so a buffer must stay untouched while
// anything still holds its frame. One publisher interleaves frames to a
// subscriber that keeps up, one whose reader is paused until the end, and
// a topic no one subscribes to, sent past the parking cap so that parked
// frames are evicted. A late subscriber, its reader paused too, first
// takes large frames from the publisher until its socket is full and the
// publisher's free list is empty. Then it announces the parked topic, so
// the parked frames are flushed into a queue whose writer is stuck, and
// the publisher goes on sending to the other two, reading into whatever
// buffers were let go. Every frame that arrives — at once, late, or after
// it was parked — must carry the bytes that were sent.
func TestRelayBufferOutlivesEveryHolder(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fast, slow, pub := dialRaw(t, srv, "fast"), dialRaw(t, srv, "slow"), dialRaw(t, srv)
	serverConnOf(t, srv, fast)
	serverConnOf(t, srv, slow)
	pubConn := serverConnOf(t, srv, pub)
	const n = 4 * retainPerTopic
	check := func(p *rawPeer, want string, from, to int) {
		for i := from; i < to; i++ {
			topic, got, err := p.recv()
			if err != nil {
				t.Errorf("%s: frame %d: %v", want, i, err)
				return
			}
			if string(topic) != want || !bytes.Equal(got, relayPayload(want, i)) {
				t.Errorf("frame %d on %q arrived as %d bytes on %q, not the %d bytes sent", i, want, len(got), topic, len(relayPayload(want, i)))
				return
			}
		}
	}
	publish := func(from, to int, topics ...string) {
		for i := from; i < to; i++ {
			for _, topic := range topics {
				if err := pub.send(topic, relayPayload(topic, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		check(fast, "fast", 0, 2*n)
	}()
	publish(0, n, "fast", "slow", "dead")
	waitFor(t, "the dead topic's evictions", func() bool {
		return srv.Telemetry().Snapshot().Counters["bus.server.retained.dropped"] == n-retainPerTopic
	})
	late := dialRaw(t, srv, "fill")
	lateConn := serverConnOf(t, srv, late)
	fill := make([]byte, 256<<10)
	fills := fillSocket(t, srv, pub, "fill", fill, func() bool {
		lateConn.mu.Lock()
		defer lateConn.mu.Unlock()
		return len(lateConn.queue) >= 2 && len(pubConn.free) == 0
	})
	if err := late.send(SubscribeTopic, []byte("fill\ndead")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the parked frames flushed", func() bool {
		return srv.Telemetry().Snapshot().Gauges["bus.server.depth.dead"] == retainPerTopic
	})
	publish(n, 2*n, "fast", "slow")
	for i := 0; i < fills; i++ {
		if topic, got, err := late.recv(); err != nil || string(topic) != "fill" || len(got) != len(fill) {
			t.Fatalf("fill frame %d: %d bytes on %q (%v)", i, len(got), topic, err)
		}
	}
	check(late, "dead", n-retainPerTopic, n)
	<-fastDone
	check(slow, "slow", 0, 2*n)
}

// TestRelayQueueChargesTheMemoryItHolds: a publisher alternates 512 KiB
// frames to a subscriber that keeps up with 200-byte frames to one whose
// socket is full, each small frame sent once the large buffer is back on
// the free list. Each queued frame must be charged at least the memory it
// holds, since the charge is what maxQueuedBytes bounds, and no small
// frame may hold a buffer over twice its size, so that the cutoff does
// not fire for a lag far below it.
func TestRelayQueueChargesTheMemoryItHolds(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fast, paused, pub := dialRaw(t, srv, "big"), dialRaw(t, srv, "small"), dialRaw(t, srv)
	serverConnOf(t, srv, fast)
	pausedConn := serverConnOf(t, srv, paused)
	pubConn := serverConnOf(t, srv, pub)
	queuedSmall := func() (k int) {
		pausedConn.mu.Lock()
		defer pausedConn.mu.Unlock()
		for _, f := range pausedConn.queue {
			if len(f.payload) == 200 {
				k++
			}
		}
		return k
	}
	fillSocket(t, srv, pub, "small", make([]byte, 256<<10), func() bool {
		pausedConn.mu.Lock()
		defer pausedConn.mu.Unlock()
		return len(pausedConn.queue) >= 2
	})
	const rounds = 16
	big := make([]byte, 512<<10)
	for i := 0; i < rounds; i++ {
		if err := pub.send("big", big); err != nil {
			t.Fatal(err)
		}
		if _, got, err := fast.recv(); err != nil || len(got) != len(big) {
			t.Fatalf("received %d bytes (%v), want %d", len(got), err, len(big))
		}
		waitFor(t, "the large buffer back on the free list", func() bool { return len(pubConn.free) > 0 })
		if err := pub.send("small", make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the small frame queued", func() bool { return queuedSmall() == i+1 })
	}
	pausedConn.mu.Lock()
	defer pausedConn.mu.Unlock()
	for _, f := range pausedConn.queue {
		n, held := len(f.buf.b), cap(f.buf.b)
		if f.size() < int64(held) {
			t.Errorf("a %d-byte frame holding %d bytes is charged %d", n, held, f.size())
		}
		if held > 2*max(n, 64) {
			t.Errorf("a %d-byte frame holds a %d-byte buffer", n, held)
		}
	}
}

// TestRelayFreeListSkipsBufferOverMiB: a buffer that grew past relayKeep
// for one large frame goes to the collector once the frame is relayed,
// and the connection's free list keeps only the small one read after it.
// Each frame is sent once the one before has left its queue, and the
// reader lets go of a frame before it reads the next, so a large buffer
// that came back would carry the small frame and be the one on the list.
func TestRelayFreeListSkipsBufferOverMiB(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sub, pub := dialRaw(t, srv, "tp"), dialRaw(t, srv)
	serverConnOf(t, srv, sub)
	sc := serverConnOf(t, srv, pub)
	for _, size := range []int{2 << 20, 1 << 10} {
		if err := pub.send("tp", make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		if _, got, err := sub.recv(); err != nil || len(got) != size {
			t.Fatalf("received %d bytes (%v), want %d", len(got), err, size)
		}
		waitFor(t, "the frame dequeued", func() bool {
			return srv.Telemetry().Snapshot().Gauges["bus.server.queued.frames"] == 0
		})
	}
	waitFor(t, "a buffer back on the free list", func() bool { return len(sc.free) == 1 })
	rb := <-sc.free
	if cap(rb.b) > relayKeep {
		t.Errorf("the free list kept a %d-byte buffer, over the %d-byte limit", cap(rb.b), relayKeep)
	}
	sc.free <- rb
}
