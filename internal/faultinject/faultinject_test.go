package faultinject

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipe returns a wrapped client end and the raw server end of an
// in-memory connection.
func pipe(in *Injector) (*Conn, net.Conn) {
	c, s := net.Pipe()
	return in.Wrap(c), s
}

func TestCutAfterWritesSeversWithTruncation(t *testing.T) {
	in := New(Faults{Seed: 1, CutAfterWrites: 2, TruncateFinalWrite: 3})
	client, server := pipe(in)
	defer server.Close()

	read := make(chan []byte, 2)
	go func() {
		for {
			buf := make([]byte, 64)
			n, err := server.Read(buf)
			if err != nil {
				close(read)
				return
			}
			read <- buf[:n]
		}
	}()

	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if got := string(<-read); got != "hello" {
		t.Fatalf("first write delivered %q", got)
	}
	// Second write hits the cut: only the 3-byte prefix leaks through,
	// the writer sees ErrInjected, and the peer then sees EOF.
	if _, err := client.Write([]byte("world")); !errors.Is(err, ErrInjected) {
		t.Fatalf("cut write err = %v, want ErrInjected", err)
	}
	if got := string(<-read); got != "wor" {
		t.Fatalf("truncated prefix = %q, want \"wor\"", got)
	}
	if _, ok := <-read; ok {
		t.Fatal("peer did not observe the cut")
	}
	if in.Cuts() != 1 {
		t.Errorf("cuts = %d, want 1", in.Cuts())
	}
	// The severed conn stays dead.
	if _, err := client.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("post-cut write err = %v, want ErrInjected", err)
	}
}

func TestCutAfterReadsSevers(t *testing.T) {
	in := New(Faults{Seed: 1, CutAfterReads: 1})
	client, server := pipe(in)
	defer server.Close()
	buf := make([]byte, 8)
	if _, err := client.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	if in.Cuts() != 1 {
		t.Errorf("cuts = %d, want 1", in.Cuts())
	}
}

func TestDialerFailsScheduledDialsThenSucceeds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	in := New(Faults{Seed: 1, FailDials: 2})
	dial := in.Dialer(nil)
	for i := 0; i < 2; i++ {
		if _, err := dial(ln.Addr().String()); !errors.Is(err, ErrInjected) {
			t.Fatalf("dial %d err = %v, want ErrInjected", i, err)
		}
	}
	c, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("third dial: %v", err)
	}
	c.Close()
	total, failed := in.Dials()
	if total != 3 || failed != 2 {
		t.Errorf("dials = (%d, %d), want (3, 2)", total, failed)
	}
}

func TestBlackholedWritesAreDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) (delivered string, dropped int64) {
		in := New(Faults{Seed: seed, DropWriteProb: 0.5})
		client, server := pipe(in)
		defer client.Close()
		defer server.Close()
		done := make(chan string, 1)
		go func() {
			var got []byte
			buf := make([]byte, 16)
			for {
				n, err := server.Read(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					done <- string(got)
					return
				}
			}
		}()
		for i := 0; i < 10; i++ {
			if _, err := client.Write([]byte{byte('a' + i)}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		client.Close()
		return <-done, in.DroppedWrites()
	}

	d1, n1 := run(42)
	d2, n2 := run(42)
	if d1 != d2 || n1 != n2 {
		t.Fatalf("same seed diverged: (%q, %d) vs (%q, %d)", d1, n1, d2, n2)
	}
	if n1 == 0 || n1 == 10 {
		t.Fatalf("dropped = %d, want some but not all of 10", n1)
	}
	if len(d1)+int(n1) != 10 {
		t.Errorf("delivered %d + dropped %d != 10 written", len(d1), n1)
	}
}

func TestCutAllSeversEveryLiveConn(t *testing.T) {
	in := New(Faults{Seed: 1})
	c1, s1 := pipe(in)
	c2, s2 := pipe(in)
	defer s1.Close()
	defer s2.Close()
	if n := in.CutAll(); n != 2 {
		t.Fatalf("CutAll = %d, want 2", n)
	}
	for i, c := range []*Conn{c1, c2} {
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Errorf("conn %d write err = %v, want ErrInjected", i, err)
		}
	}
	// Severing is idempotent and orderly Close still works.
	if n := in.CutAll(); n != 0 {
		t.Errorf("second CutAll = %d, want 0", n)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := New(Faults{Seed: 1, CutAfterReads: 1})
	wrapped := in.Listener(ln)
	defer wrapped.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := wrapped.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if _, err := server.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Errorf("accepted conn read err = %v, want ErrInjected", err)
	}
}

func TestWriteDelayApplies(t *testing.T) {
	in := New(Faults{Seed: 1, WriteDelay: 20 * time.Millisecond})
	client, server := pipe(in)
	defer client.Close()
	defer server.Close()
	go io.Copy(io.Discard, server)
	start := time.Now()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("write took %v, want >= 20ms", d)
	}
}
