//go:build go1.23

package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestRWLockExclusiveSerializes(t *testing.T) {
	e := NewEnv()
	var end time.Duration
	e.Run(func() {
		l := e.NewRWLock()
		wg := e.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				l.Lock()
				e.Sleep(time.Second)
				l.Unlock()
			})
		}
		wg.Wait()
		end = e.Now()
	})
	if end != 4*time.Second {
		t.Fatalf("4 writers finished at %v, want 4s", end)
	}
}

func TestRWLockReadersShare(t *testing.T) {
	e := NewEnv()
	var end time.Duration
	e.Run(func() {
		l := e.NewRWLock()
		wg := e.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				l.RLock()
				e.Sleep(time.Second)
				l.RUnlock()
			})
		}
		wg.Wait()
		end = e.Now()
	})
	if end != time.Second {
		t.Fatalf("4 readers finished at %v, want 1s (concurrent)", end)
	}
}

func TestRWLockWriterBlocksLaterReaders(t *testing.T) {
	e := NewEnv()
	var readerDone time.Duration
	e.Run(func() {
		l := e.NewRWLock()
		wg := e.NewWaitGroup()

		// Reader 1 holds the lock for 1s.
		l.RLock()
		wg.Add(2)
		e.Go(func() {
			defer wg.Done()
			e.Sleep(10 * time.Millisecond) // writer arrives second
			l.Lock()
			e.Sleep(time.Second)
			l.Unlock()
		})
		e.Go(func() {
			defer wg.Done()
			e.Sleep(20 * time.Millisecond) // reader 2 arrives after the writer
			l.RLock()
			readerDone = e.Now()
			l.RUnlock()
		})
		e.Sleep(time.Second)
		l.RUnlock() // release reader 1 at t=1s -> writer runs 1s..2s
		wg.Wait()
	})
	// Reader 2 must wait for the queued writer (no reader barging).
	if readerDone < 2*time.Second {
		t.Fatalf("late reader entered at %v, want >= 2s (after writer)", readerDone)
	}
}

func TestRWLockFIFOFairnessUnderContention(t *testing.T) {
	// The starvation regression: under heavy write contention every
	// closed-loop client must make progress (broadcast-based wakeup let a
	// few goroutines win every time).
	e := NewEnv()
	counts := make([]int, 8)
	e.Run(func() {
		l := e.NewRWLock()
		var mu sync.Mutex
		wg := e.NewWaitGroup()
		stopAt := 2 * time.Second
		for i := range counts {
			i := i
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				for e.Now() < stopAt {
					l.Lock()
					e.Sleep(time.Millisecond)
					l.Unlock()
					mu.Lock()
					counts[i]++
					mu.Unlock()
				}
			})
		}
		wg.Wait()
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("client %d starved: counts = %v", i, counts)
		}
		// Fair share is total/8; demand near-equality.
		if c < total/16 {
			t.Errorf("client %d got %d of %d ops — unfair", i, c, total)
		}
	}
}

func TestRWLockReaderBatchAfterWriter(t *testing.T) {
	e := NewEnv()
	var r1, r2 time.Duration
	e.Run(func() {
		l := e.NewRWLock()
		l.Lock()
		wg := e.NewWaitGroup()
		wg.Add(2)
		e.Go(func() {
			defer wg.Done()
			e.Sleep(time.Millisecond)
			l.RLock()
			e.Sleep(time.Second)
			r1 = e.Now()
			l.RUnlock()
		})
		e.Go(func() {
			defer wg.Done()
			e.Sleep(2 * time.Millisecond)
			l.RLock()
			e.Sleep(time.Second)
			r2 = e.Now()
			l.RUnlock()
		})
		e.Sleep(100 * time.Millisecond)
		l.Unlock() // both queued readers enter together
		wg.Wait()
	})
	// Both readers ran concurrently after the writer released.
	if r1 > 1200*time.Millisecond || r2 > 1200*time.Millisecond {
		t.Fatalf("readers finished at %v, %v — not batched", r1, r2)
	}
}

func TestRWLockMisuse(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		l := e.NewRWLock()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Unlock without Lock should panic")
				}
			}()
			l.Unlock()
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("RUnlock without RLock should panic")
				}
			}()
			l.RUnlock()
		}()
	})
}

func TestRWLockUncontendedFastPath(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		l := e.NewRWLock()
		l.Lock()
		l.Unlock()
		l.RLock()
		l.RUnlock()
		if e.Now() != 0 {
			t.Errorf("uncontended lock advanced time to %v", e.Now())
		}
	})
}
