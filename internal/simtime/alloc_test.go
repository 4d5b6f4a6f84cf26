//go:build !race

package simtime

// Allocation pins for parking in virtual time. Excluded under -race: the
// race detector's instrumentation adds bookkeeping allocations unrelated to
// the code under test.

import (
	"sync"
	"testing"
	"time"
)

// TestAllocParkWake: on a warm environment — one whose free list already
// holds as many waiters as goroutines park at once — a park and its wake-up
// allocate nothing, whichever primitive they go through.
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
