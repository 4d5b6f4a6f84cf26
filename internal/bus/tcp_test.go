package bus

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// stringCodec carries string messages verbatim — enough to exercise the
// relay without dragging the real wire codec into this package.
type stringCodec struct{}

func (stringCodec) Append(dst []byte, msg any) ([]byte, error) {
	s, _ := msg.(string)
	return append(dst, s...), nil
}

func (stringCodec) Decoder() func([]byte) (any, error) {
	return func(data []byte) (any, error) { return string(data), nil }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerRelaysBetweenLinks(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sender := New()
	sendLink, err := Connect(sender, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	recver := New()
	var got []string
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	recver.Subscribe("tp", func(msg any) {
		<-mu
		got = append(got, msg.(string))
		mu <- struct{}{}
	})
	recvLink, err := Connect(recver, srv.Addr(), stringCodec{}, nil, []string{"tp"})
	if err != nil {
		t.Fatal(err)
	}
	defer recvLink.Close()

	sender.Publish("tp", "hello")
	sender.Publish("tp", "world")
	waitFor(t, "relayed messages", func() bool {
		<-mu
		n := len(got)
		mu <- struct{}{}
		return n == 2
	})
	if got[0] != "hello" || got[1] != "world" {
		t.Fatalf("got = %v", got)
	}
}

func TestServerTelemetryCountsFramesAndConns(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	b := New()
	link, err := Connect(b, srv.Addr(), stringCodec{}, []string{"tp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	b.Publish("tp", "x")
	b.Publish("tp", "y")

	tel := srv.Telemetry()
	waitFor(t, "server frame counters", func() bool {
		return tel.Snapshot().Counters["bus.server.frames"] >= 2
	})
	snap := tel.Snapshot()
	if snap.Gauges["bus.server.conns"] != 1 {
		t.Errorf("conns = %d, want 1", snap.Gauges["bus.server.conns"])
	}
	if snap.Counters["bus.server.bytes"] <= 0 {
		t.Errorf("bytes = %d, want > 0", snap.Counters["bus.server.bytes"])
	}
}

func TestFetchServerStatus(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	text, err := FetchServerStatus(srv.Addr(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{srv.Addr(), "bus.server.conns"} {
		if !strings.Contains(text, want) {
			t.Errorf("status missing %q:\n%s", want, text)
		}
	}
}

// TestConcurrentSendsArriveIntact: goroutines sending on one link share
// its encode buffer; each frame must still reach the receiver whole, with
// no bytes of another. Payloads span the bufio buffer's size, so some are
// copied into it and some written past it.
func TestConcurrentSendsArriveIntact(t *testing.T) {
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
	sendLink, err := Connect(New(), srv.Addr(), stringCodec{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sendLink.Close()

	const senders, each = 8, 25
	payload := func(g, k int) string {
		return fmt.Sprintf("%d/%d:", g, k) + strings.Repeat(string(rune('a'+g)), (g*each+k)*97)
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				if err := sendLink.Send("tp", payload(g, k)); err != nil {
					t.Errorf("send %d/%d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "every frame", func() bool { return got.len() == senders*each })
	want := make(map[string]bool, senders*each)
	for g := 0; g < senders; g++ {
		for k := 0; k < each; k++ {
			want[payload(g, k)] = true
		}
	}
	got.mu.Lock()
	defer got.mu.Unlock()
	for _, m := range got.msgs {
		if !want[m] {
			t.Fatalf("received a frame no goroutine sent (%d bytes, starts %.20q)", len(m), m)
		}
		delete(want, m)
	}
}
