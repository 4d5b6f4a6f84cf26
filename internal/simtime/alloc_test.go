//go:build go1.23 && !race

package simtime

// Allocation pins for parking in virtual time and starting a goroutine.
// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"sync"
	"testing"
	"time"
)

// TestAllocParkWake: on a warm environment — one whose ready FIFO, timer
// lanes and cond lists have grown to the most goroutines they ever hold —
// a park and its wake-up allocate nothing, whichever primitive they go
// through.
func TestAllocParkWake(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		ping, pong := e.NewCond(&mu), e.NewCond(&mu)
		turn := 0 // guarded by mu; odd while the echo goroutine owes a reply
		e.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			for {
				for turn%2 == 0 {
					ping.Wait()
				}
				turn++
				pong.Signal()
			}
		})
		in, out := NewQueue[int](e), NewQueue[int](e)
		e.Go(func() {
			for {
				out.Push(in.Pop())
			}
		})
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"Sleep", func() { e.Sleep(time.Microsecond) }},
			{"Cond.Wait+Signal", func() {
				mu.Lock()
				defer mu.Unlock()
				turn++
				ping.Signal()
				for turn%2 == 1 {
					pong.Wait()
				}
			}},
			{"Queue.Push+Pop", func() {
				in.Push(1)
				out.Pop()
			}},
			{"Cond.WaitTimeout timing out", func() {
				mu.Lock()
				defer mu.Unlock()
				if !pong.WaitTimeout(time.Microsecond) {
					t.Error("WaitTimeout with no signaller did not time out")
				}
			}},
		} {
			if n := testing.AllocsPerRun(200, op.fn); n != 0 {
				t.Errorf("%s allocates %.2f objects/op on a warm Env, want 0", op.name, n)
			}
		}
	})
}

// TestAllocRWLockContended: an acquirer that finds the lock held queues
// itself by value and parks; neither costs an allocation on a warm lock.
func TestAllocRWLockContended(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		rw := e.NewRWLock()
		grab, held := NewQueue[bool](e), NewQueue[int](e)
		// The holder takes the lock as asked (true = exclusively), says so,
		// and keeps it for a microsecond: long enough for the measured
		// acquirer to find it held and queue.
		e.Go(func() {
			for {
				writing := grab.Pop()
				if writing {
					rw.Lock()
				} else {
					rw.RLock()
				}
				held.Push(1)
				e.Sleep(time.Microsecond)
				if writing {
					rw.Unlock()
				} else {
					rw.RUnlock()
				}
			}
		})
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"RLock behind a writer", func() {
				grab.Push(true)
				held.Pop()
				rw.RLock()
				rw.RUnlock()
			}},
			{"Lock behind a reader", func() {
				grab.Push(false)
				held.Pop()
				rw.Lock()
				rw.Unlock()
			}},
		} {
			if n := testing.AllocsPerRun(200, op.fn); n != 0 {
				t.Errorf("%s allocates %.2f objects/op on a warm lock, want 0", op.name, n)
			}
		}
	})
}

// TestAllocGo pins what starting a managed goroutine costs: its thread,
// and the coroutine iter.Pull builds for it.
func TestAllocGo(t *testing.T) {
	const want = 13
	e := NewEnv()
	e.Run(func() {
		n := testing.AllocsPerRun(200, func() {
			e.Go(func() {})
			e.Sleep(0) // the new goroutine runs to its end
		})
		if n > want {
			t.Errorf("Env.Go allocates %.2f objects, want <= %d", n, want)
		}
	})
}
