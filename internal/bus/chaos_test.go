package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// Chaos suite: deterministic fault schedules driven through faultinject,
// exercising the resilience layer — reconnecting links, per-connection
// frame-error isolation, and connection hygiene on every FetchServerStatus
// exit path. All tests use fixed seeds and pass under -race -count=N.

// collector accumulates relayed messages on a local bus.
type collector struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collector) add(msg any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, msg.(string))
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

// chaosOpts is the deterministic reconnect schedule used across the suite.
func chaosOpts(seed int64) LinkOptions {
	return LinkOptions{
		Reconnect:   true,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		JitterSeed:  seed,
	}
}

func TestLinkReconnectsAfterServerRestart(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := ConnectOptions(recvBus, addr, stringCodec{}, nil, []string{"tp"}, chaosOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	sendBus := New()
	var dropped collector
	sopts := chaosOpts(2)
	sopts.OnDrop = func(topic string, msg any) { dropped.add(msg) }
	sendLink, err := ConnectOptions(sendBus, addr, stringCodec{}, []string{"tp"}, nil, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	sendBus.Publish("tp", "before")
	waitFor(t, "pre-outage relay", func() bool { return got.len() == 1 })

	// Outage: the server dies; both links must notice and start redialing.
	srv.Close()
	waitFor(t, "links to notice the outage", func() bool {
		return !sendLink.Connected() && !recvLink.Connected()
	})

	// Messages published mid-outage are reported via OnDrop, not lost
	// silently.
	sendBus.Publish("tp", "during")
	waitFor(t, "outage drop accounting", func() bool { return dropped.len() == 1 })
	if n := sendLink.Drops(); n != 1 {
		t.Errorf("link drops = %d, want 1", n)
	}

	// Recovery: restart the bus at the same address; links reconnect
	// within the backoff bound and bridging resumes, including a replay
	// of the dropped message via direct Send.
	srv2, err := Serve(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitFor(t, "links to reconnect", func() bool {
		return sendLink.Connected() && recvLink.Connected()
	})
	if n := sendLink.Reconnects(); n < 1 {
		t.Errorf("send link reconnects = %d, want >= 1", n)
	}
	for _, m := range dropped.msgs {
		if err := sendLink.Send("tp", m); err != nil {
			t.Fatalf("replay Send: %v", err)
		}
	}
	sendBus.Publish("tp", "after")
	waitFor(t, "post-outage relay", func() bool { return got.len() == 3 })
	want := map[string]bool{"before": true, "during": true, "after": true}
	for _, m := range got.msgs {
		if !want[m] {
			t.Errorf("unexpected message %q (got %v)", m, got.msgs)
		}
		delete(want, m)
	}
	if len(want) > 0 {
		t.Errorf("missing messages: %v", want)
	}
}

func TestLinkSurvivesRepeatedInjectedCuts(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := ConnectOptions(recvBus, srv.Addr(), stringCodec{}, nil, []string{"tp"}, chaosOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	// The sender's connections are severed by the injector after every
	// 4th write; the link must redial each time and keep going.
	inj := faultinject.New(faultinject.Faults{Seed: 7, CutAfterWrites: 4})
	sopts := chaosOpts(4)
	sopts.Dial = inj.Dialer(nil)
	var dropped collector
	sopts.OnDrop = func(topic string, msg any) { dropped.add(msg) }
	sendBus := New()
	sendLink, err := ConnectOptions(sendBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	const total = 20
	for i := 0; i < total; i++ {
		sendBus.Publish("tp", "m")
		time.Sleep(time.Millisecond)
	}
	// Every publish is either relayed or accounted for as dropped; with
	// cuts every 4 writes the link must have reconnected at least twice.
	waitFor(t, "all messages accounted for", func() bool {
		return got.len()+dropped.len() == total
	})
	if cuts := inj.Cuts(); cuts < 2 {
		t.Errorf("injector cuts = %d, want >= 2", cuts)
	}
	if n := sendLink.Reconnects(); n < 2 {
		t.Errorf("reconnects = %d, want >= 2", n)
	}
	if got.len() == 0 {
		t.Error("no messages relayed at all")
	}
}

func TestServerToleratesMalformedFramesOnUnrelatedConn(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := Connect(recvBus, srv.Addr(), stringCodec{}, nil, []string{"tp"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	sendBus := New()
	sendLink, err := Connect(sendBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	sendBus.Publish("tp", "one")
	waitFor(t, "healthy relay", func() bool { return got.len() == 1 })

	// A rogue connection sends garbage: an absurd topic length, then a
	// zero-length topic, then a frame cut mid-payload.
	for _, garbage := range [][]byte{
		binary.AppendUvarint(nil, 1<<40),
		{0x00},
		{0x01, 't', 0x0A, 'p', 'a', 'r'}, // promises 10 payload bytes, sends 3
	} {
		rogue, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		rogue.Write(garbage)
		rogue.Close()
	}
	waitFor(t, "bad frames counted", func() bool {
		return srv.Telemetry().Snapshot().Counters["bus.server.badframes"] >= 2
	})

	// The healthy pair keeps relaying.
	sendBus.Publish("tp", "two")
	waitFor(t, "relay after garbage", func() bool { return got.len() == 2 })
}

// TestServerOversizedTopicKillsOnlyItsConn: a header that claims a topic
// longer than maxTopic is refused before anything is sized from it or read
// after it. The server drops that one connection, without waiting for the
// bytes it promised, and counts one bad frame; the relay between the
// links goes on.
func TestServerOversizedTopicKillsOnlyItsConn(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := Connect(recvBus, srv.Addr(), stringCodec{}, nil, []string{"tp"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()
	sendBus := New()
	sendLink, err := Connect(sendBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	rogue, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if _, err := rogue.Write(binary.AppendUvarint(nil, maxTopic+1)); err != nil {
		t.Fatal(err)
	}
	rogue.SetReadDeadline(time.Now().Add(3 * time.Second))
	if n, err := rogue.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the server kept the connection that sent an oversized topic (read %d bytes, err %v)", n, err)
	}
	tel := srv.Telemetry()
	waitFor(t, "rogue conn dropped", func() bool { return tel.Snapshot().Gauges["bus.server.conns"] == 2 })
	if bad := tel.Snapshot().Counters["bus.server.badframes"]; bad != 1 {
		t.Errorf("bus.server.badframes = %d, want 1", bad)
	}
	sendBus.Publish("tp", "after")
	waitFor(t, "relay after the oversized topic", func() bool { return got.len() == 1 })
}

func TestServerToleratesTruncatedFrameFromInjectedCut(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := Connect(recvBus, srv.Addr(), stringCodec{}, nil, []string{"tp"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	// A victim connection is severed mid-frame: the injector lets 2 bytes
	// of the third write (announce, then one whole publish, then this one)
	// through, leaving a truncated frame on the server's wire.
	inj := faultinject.New(faultinject.Faults{Seed: 5, CutAfterWrites: 3, TruncateFinalWrite: 2})
	victimBus := New()
	vopts := LinkOptions{Dial: inj.Dialer(nil)}
	victimLink, err := ConnectOptions(victimBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil, vopts)
	if err != nil {
		t.Fatal(err)
	}
	defer victimLink.Close()

	victimBus.Publish("tp", "whole")  // write 1: delivered intact
	victimBus.Publish("tp", "never!") // write 2: truncated to 2 bytes, then cut
	waitFor(t, "intact frame relayed", func() bool { return got.len() == 1 })
	waitFor(t, "truncated frame detected", func() bool {
		return srv.Telemetry().Snapshot().Counters["bus.server.badframes"] >= 1
	})

	// Unrelated connections are unaffected.
	sendBus := New()
	sendLink, err := Connect(sendBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()
	sendBus.Publish("tp", "still alive")
	waitFor(t, "relay after truncated frame", func() bool { return got.len() == 2 })
	if got.msgs[0] != "whole" || got.msgs[1] != "still alive" {
		t.Errorf("messages = %v", got.msgs)
	}
}

// Frames published while no one subscribes to their topic are parked in
// the server's bounded retention buffer and flushed — oldest first — to
// the next subscriber, instead of being relayed into an empty room. This
// is what makes an agent's replay safe when the frontend is itself still
// reconnecting.
func TestServerParksFramesUntilSubscriberArrives(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sendBus := New()
	sendLink, err := Connect(sendBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	// No subscriber for "tp" is connected: both publishes must be parked.
	sendBus.Publish("tp", "first")
	sendBus.Publish("tp", "second")
	waitFor(t, "frames parked", func() bool {
		return srv.Telemetry().Snapshot().Gauges["bus.server.retained"] == 2
	})

	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := Connect(recvBus, srv.Addr(), stringCodec{}, nil, []string{"tp"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	waitFor(t, "parked backlog flushed", func() bool { return got.len() == 2 })
	if got.msgs[0] != "first" || got.msgs[1] != "second" {
		t.Errorf("backlog order = %v, want [first second]", got.msgs)
	}
	if g := srv.Telemetry().Snapshot().Gauges["bus.server.retained"]; g != 0 {
		t.Errorf("retained gauge after flush = %d, want 0", g)
	}

	// With the subscriber connected, traffic relays directly again.
	sendBus.Publish("tp", "third")
	waitFor(t, "live relay after flush", func() bool { return got.len() == 3 })
}

// The retention buffer is bounded: overflow evicts the oldest parked
// frame and counts it, so a dead topic cannot grow server memory without
// bound or hide its losses.
func TestServerRetentionCapEvictsOldestAndCounts(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sendBus := New()
	sendLink, err := Connect(sendBus, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	const over = 5
	for i := 0; i < retainPerTopic+over; i++ {
		sendBus.Publish("tp", fmt.Sprintf("m%03d", i))
	}
	waitFor(t, "evictions counted", func() bool {
		snap := srv.Telemetry().Snapshot()
		return snap.Counters["bus.server.retained.dropped"] == over &&
			snap.Gauges["bus.server.retained"] == retainPerTopic
	})

	recvBus := New()
	var got collector
	recvBus.Subscribe("tp", got.add)
	recvLink, err := Connect(recvBus, srv.Addr(), stringCodec{}, nil, []string{"tp"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	waitFor(t, "capped backlog flushed", func() bool { return got.len() == retainPerTopic })
	// The survivors are the newest frames, still in order.
	if got.msgs[0] != fmt.Sprintf("m%03d", over) {
		t.Errorf("oldest surviving frame = %q, want m%03d", got.msgs[0], over)
	}
}

// Regression test: FetchServerStatus must close its connection on the
// read-timeout path (dial succeeded, no response arrived).
func TestFetchServerStatusClosesConnOnTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()

	if _, err := FetchServerStatus(ln.Addr().String(), 100*time.Millisecond); err == nil {
		t.Fatal("FetchServerStatus succeeded against a mute server")
	}
	conn := <-accepted
	defer conn.Close()
	// If the client closed its side, our read unblocks with EOF promptly;
	// a leaked connection would leave the read hanging until our deadline.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("client connection still open after timeout: leak")
			}
			return // EOF/reset: the client closed its connection
		}
		_ = n // the status request frame itself
	}
}
