//go:build go1.23

package simtime

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var at time.Duration
	start := time.Now()
	e.Run(func() {
		e.Sleep(10 * time.Minute)
		at = e.Now()
	})
	if at != 10*time.Minute {
		t.Fatalf("virtual time = %v, want 10m", at)
	}
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("took %v of real time for virtual sleep", real)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		e.Sleep(0)
		e.Sleep(-5 * time.Second)
		if e.Now() != 0 {
			t.Errorf("now = %v, want 0", e.Now())
		}
	})
}

func TestConcurrentSleepOrdering(t *testing.T) {
	e := NewEnv()
	var mu sync.Mutex
	var order []int
	e.Run(func() {
		wg := e.NewWaitGroup()
		for i, d := range []time.Duration{30, 10, 20} {
			i, d := i, d
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				e.Sleep(d * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNestedGo(t *testing.T) {
	e := NewEnv()
	var total time.Duration
	e.Run(func() {
		wg := e.NewWaitGroup()
		wg.Add(1)
		e.Go(func() {
			defer wg.Done()
			e.Sleep(time.Second)
			inner := e.NewWaitGroup()
			inner.Add(1)
			e.Go(func() {
				defer inner.Done()
				e.Sleep(2 * time.Second)
			})
			inner.Wait()
		})
		wg.Wait()
		total = e.Now()
	})
	if total != 3*time.Second {
		t.Fatalf("total = %v, want 3s", total)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEnv()
	var mu sync.Mutex
	var woke []int
	e.Run(func() {
		cond := e.NewCond(&mu)
		ready := e.NewWaitGroup()
		done := e.NewWaitGroup()
		for i := 0; i < 3; i++ {
			i := i
			ready.Add(1)
			done.Add(1)
			e.Go(func() {
				defer done.Done()
				mu.Lock()
				ready.Done()
				cond.Wait()
				woke = append(woke, i)
				mu.Unlock()
			})
			// Serialize arrival order so FIFO expectation is deterministic.
			e.Sleep(time.Millisecond)
		}
		ready.Wait()
		for i := 0; i < 3; i++ {
			cond.Signal()
			e.Sleep(time.Millisecond)
		}
		done.Wait()
	})
	for i, v := range woke {
		if v != i {
			t.Fatalf("wake order = %v, want FIFO", woke)
		}
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		mu.Lock()
		timedOut := cond.WaitTimeout(5 * time.Second)
		mu.Unlock()
		if !timedOut {
			t.Error("expected timeout")
		}
		if e.Now() != 5*time.Second {
			t.Errorf("now = %v, want 5s", e.Now())
		}
	})
}

func TestCondWaitTimeoutSignaledFirst(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		e.Go(func() {
			e.Sleep(time.Second)
			cond.Signal()
		})
		mu.Lock()
		timedOut := cond.WaitTimeout(time.Minute)
		mu.Unlock()
		if timedOut {
			t.Error("expected signal, got timeout")
		}
		if e.Now() != time.Second {
			t.Errorf("now = %v, want 1s", e.Now())
		}
	})
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		q := NewQueue[int](e)
		for i := 0; i < 5; i++ {
			q.Push(i)
		}
		for i := 0; i < 5; i++ {
			if got := q.Pop(); got != i {
				t.Fatalf("Pop = %d, want %d", got, i)
			}
		}
	})
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	e := NewEnv()
	var popped int
	var at time.Duration
	e.Run(func() {
		q := NewQueue[int](e)
		e.Go(func() {
			e.Sleep(3 * time.Second)
			q.Push(42)
		})
		popped = q.Pop()
		at = e.Now()
	})
	if popped != 42 || at != 3*time.Second {
		t.Fatalf("popped %d at %v, want 42 at 3s", popped, at)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		q := NewQueue[int](e)
		if _, ok := q.PopTimeout(time.Second); ok {
			t.Error("expected timeout")
		}
		if e.Now() != time.Second {
			t.Errorf("now = %v, want 1s", e.Now())
		}
		q.Push(7)
		v, ok := q.PopTimeout(time.Second)
		if !ok || v != 7 {
			t.Errorf("got (%d, %v), want (7, true)", v, ok)
		}
	})
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	var end time.Duration
	e.Run(func() {
		sem := e.NewSemaphore(2)
		wg := e.NewWaitGroup()
		for i := 0; i < 4; i++ {
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				sem.Acquire()
				defer sem.Release()
				e.Sleep(time.Second)
			})
		}
		wg.Wait()
		end = e.Now()
	})
	// 4 tasks of 1s with 2 permits => 2s total.
	if end != 2*time.Second {
		t.Fatalf("end = %v, want 2s", end)
	}
}

func TestRunForStopsOpenEndedWork(t *testing.T) {
	e := NewEnv()
	count := 0
	e.Run(func() {
		e.Go(func() {
			for {
				e.Sleep(time.Second)
				count++
				if e.Done() {
					return
				}
			}
		})
		e.Sleep(10 * time.Second)
	})
	if count < 9 || count > 11 {
		t.Fatalf("count = %d, want ~10", count)
	}
}

func TestManyGoroutinesScale(t *testing.T) {
	e := NewEnv()
	var mu sync.Mutex
	total := 0
	e.Run(func() {
		wg := e.NewWaitGroup()
		for i := 0; i < 1000; i++ {
			i := i
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				e.Sleep(time.Duration(i%97) * time.Millisecond)
				mu.Lock()
				total++
				mu.Unlock()
			})
		}
		wg.Wait()
	})
	if total != 1000 {
		t.Fatalf("total = %d, want 1000", total)
	}
}

func TestWaitGroupZeroWaitReturnsImmediately(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		wg := e.NewWaitGroup()
		wg.Wait() // counter is zero; must not block
	})
}

// TestQueueBacklogKeepsOrder: a queue that never drains reuses its spent
// slots instead of growing for ever, and loses or reorders nothing doing it.
func TestQueueBacklogKeepsOrder(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		q := NewQueue[int](e)
		next, want := 0, 0
		for round := 0; round < 1000; round++ {
			for i := 0; i < 3; i++ {
				q.Push(next)
				next++
			}
			for i := 0; i < 2+round%2; i++ { // drains to empty now and then
				if q.Len() == 0 {
					break
				}
				if got := q.Pop(); got != want {
					t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
				}
				want++
			}
		}
		if q.Len() != next-want {
			t.Fatalf("Len = %d, want %d", q.Len(), next-want)
		}
		if c := cap(q.items.buf); c > 4*(q.Len()+4) {
			t.Fatalf("backing array grew to %d for a backlog of %d", c, q.Len())
		}
	})
}

// TestOneGoroutineAtATime: exactly one managed goroutine runs at a time, so
// they share state without a lock (under -race, every handoff is a
// synchronisation), and goroutines made ready run in the order they were
// made ready.
func TestOneGoroutineAtATime(t *testing.T) {
	const n, rounds = 8, 100
	e := NewEnv()
	counter := 0 // bumped by every goroutine, unlocked
	var woke []int
	fireOrder := []int{5, 2, 7, 0, 3, 6, 1, 4}
	e.Run(func() {
		wg := e.NewWaitGroup()
		gates := make([]*Queue[int], n)
		for i := range gates {
			gates[i] = NewQueue[int](e)
			wg.Add(1)
			e.Go(func() {
				defer wg.Done()
				for k := 0; k < rounds; k++ {
					counter++
					e.Sleep(time.Duration(k%3) * time.Millisecond)
				}
				gates[i].Pop()
				woke = append(woke, i)
			})
		}
		e.Sleep(time.Second) // every goroutine is parked on its gate by now
		for _, i := range fireOrder {
			gates[i].Push(0)
		}
		wg.Wait()
	})
	if counter != n*rounds {
		t.Errorf("counter = %d, want %d", counter, n*rounds)
	}
	if !slices.Equal(woke, fireOrder) {
		t.Errorf("woke in order %v, want the order they were made ready, %v", woke, fireOrder)
	}
}

// TestSignalRunsAfterWakerParks: Signal and Go only make a goroutine ready;
// the caller runs on until it parks, then the ready ones run in FIFO order.
func TestSignalRunsAfterWakerParks(t *testing.T) {
	e := NewEnv()
	var log []string
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		e.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			cond.Wait()
			log = append(log, "woken")
		})
		e.Sleep(0) // the waiter parks
		cond.Signal()
		e.Go(func() { log = append(log, "spawned") })
		log = append(log, "after Signal and Go")
		e.Sleep(0)
		log = append(log, "waker again")
	})
	want := []string{"after Signal and Go", "woken", "spawned", "waker again"}
	if !slices.Equal(log, want) {
		t.Errorf("ran in order %q, want %q", log, want)
	}
}

// TestSameInstantTimersFireInArmOrder: two sleepers due at the same instant
// wake in the order they armed their timers, as seq says.
func TestSameInstantTimersFireInArmOrder(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Run(func() {
		e.Go(func() {
			e.Sleep(time.Second)
			order = append(order, "armed first")
		})
		e.Sleep(0) // the goroutine arms its timer
		e.Sleep(time.Second)
		order = append(order, "armed second")
		if now := e.Now(); now != time.Second {
			t.Errorf("now = %v after sleeping to 1s", now)
		}
	})
	want := []string{"armed first", "armed second"}
	if !slices.Equal(order, want) {
		t.Errorf("woke in order %q, want %q", order, want)
	}
}
