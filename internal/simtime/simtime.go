// Package simtime provides a virtual-time discrete-event scheduler for
// simulating distributed systems deterministically and quickly.
//
// Code under simulation runs in "managed" goroutines spawned with Env.Go or
// Env.Run. Managed goroutines must block only through the primitives in this
// package (Sleep, Cond, Queue, Semaphore, WaitGroup, RWLock). When every managed
// goroutine is blocked, the environment advances virtual time to the next
// pending timer — so a simulated experiment spanning minutes of virtual time
// completes in milliseconds of real time.
//
// The clock never advances while any managed goroutine is runnable, which
// makes timing exact: a Sleep(d) wakes at precisely now+d in virtual time.
//
// A simulation ends when the root function of Env.Run returns. Goroutines
// still parked then do not resume: they unwind with runtime.Goexit, running
// their deferred calls only, and Run returns after the last of them has
// exited. The one rule this imposes on simulated code: a lock held across a
// Cond wait is released in a defer, because the wait re-acquires it before
// unwinding.
package simtime

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Env is a simulation environment: a virtual clock plus the accounting needed
// to know when all managed goroutines are blocked.
type Env struct {
	mu       sync.Mutex
	now      time.Duration
	seq      int64
	timers   timerHeap
	runnable int
	done     bool
	panicVal any

	// Every waiter the environment ever made is on the all list; the ones no
	// goroutine is using are also on the free list. A park takes its waiter
	// from the free list and puts it back on waking, so a warm environment
	// parks without allocating, and teardown finds every parked goroutine by
	// walking all.
	all, free *waiter

	// managed counts the managed goroutines that have not exited; Run
	// returns when it drains.
	managed sync.WaitGroup
}

// NewEnv returns a fresh environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Done reports whether the environment has finished: the root function of Run
// has returned, the simulation deadlocked, or a managed goroutine panicked.
// A loop that parks every iteration need not poll it — its next park unwinds
// the goroutine — but a loop that can spin without parking must.
func (e *Env) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// waiter is the parking spot of one managed goroutine. All fields are
// guarded by Env.mu; ch carries exactly one wake-up per park.
type waiter struct {
	ch      chan struct{} // 1-buffered: the waker never blocks
	wakeAt  time.Duration
	seq     int64
	heapIdx int   // index in the timer heap, -1 if not scheduled
	cond    *Cond // the Cond whose waiters list holds it, if any

	parked   bool // a goroutine is waiting on ch and nobody has woken it yet
	timedOut bool // woken by its timer
	poisoned bool // woken by teardown: the goroutine must unwind

	nextAll, nextFree *waiter
}

// timerHeap is a min-heap of waiters ordered by (wakeAt, seq).
type timerHeap []*waiter

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].wakeAt != h[j].wakeAt {
		return h[i].wakeAt < h[j].wakeAt
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *timerHeap) Push(x any) {
	w := x.(*waiter)
	w.heapIdx = len(*h)
	*h = append(*h, w)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.heapIdx = -1
	*h = old[:n-1]
	return w
}

// newWaiter readies a waiter for one park of the calling goroutine, with a
// timer at now+d when timed. seq advances once per park whether or not the
// waiter is recycled: it breaks ties between timers due at the same instant,
// so the wake order of a simulation is a function of its park order alone.
// If the environment is done the caller may not park: newWaiter releases
// e.mu and unwinds the goroutine. Caller holds e.mu.
func (e *Env) newWaiter(timed bool, d time.Duration) *waiter {
	if e.done {
		e.mu.Unlock()
		runtime.Goexit()
	}
	w := e.free
	if w == nil {
		w = &waiter{ch: make(chan struct{}, 1), nextAll: e.all}
		e.all = w
	} else {
		e.free = w.nextFree
	}
	e.seq++
	w.seq = e.seq
	w.parked = true
	w.heapIdx = -1
	if timed {
		w.wakeAt = e.now + max(d, 0)
		heap.Push(&e.timers, w)
	}
	return w
}

// wake unparks w's goroutine. Caller holds e.mu and has taken w off the
// timer heap and off its cond's list.
func (e *Env) wake(w *waiter) {
	w.parked = false
	e.runnable++
	w.ch <- struct{}{}
}

// fire unparks w on behalf of a Signal or Broadcast. Caller holds e.mu.
func (e *Env) fire(w *waiter) {
	if w.heapIdx >= 0 {
		heap.Remove(&e.timers, w.heapIdx)
	}
	e.wake(w)
}

// park blocks the calling goroutine on w until it is woken, recycles w, and
// reports whether the wake-up was w's timer. Caller holds e.mu; park releases
// it. If the wake-up was teardown, park re-acquires relock (the lock a Cond
// wait released, so the caller's deferred Unlock stays valid) and unwinds the
// goroutine instead of returning.
func (e *Env) park(w *waiter, relock sync.Locker) (timedOut bool) {
	e.runnable--
	if e.runnable == 0 {
		e.advance()
	}
	e.mu.Unlock()
	<-w.ch
	e.mu.Lock()
	timedOut, poisoned := w.timedOut, w.poisoned
	w.timedOut, w.poisoned, w.cond = false, false, nil
	w.nextFree = e.free
	e.free = w
	e.mu.Unlock()
	if relock != nil {
		relock.Lock()
	}
	if poisoned {
		runtime.Goexit()
	}
	return timedOut
}

// advance moves virtual time forward to the next timer and fires it.
// Caller holds e.mu and has observed runnable == 0.
func (e *Env) advance() {
	if e.done {
		return
	}
	if e.timers.Len() == 0 {
		// Deadlock: every managed goroutine is blocked and no timer is
		// pending. Route the panic to the goroutine that called Run.
		e.finish("simtime: deadlock — all managed goroutines blocked with no pending timers")
		return
	}
	w := heap.Pop(&e.timers).(*waiter)
	if w.wakeAt > e.now {
		e.now = w.wakeAt
	}
	w.timedOut = true
	if w.cond != nil {
		w.cond.remove(w)
	}
	e.wake(w)
}

// finish ends the simulation: the clock stops, every parked goroutine is
// woken poisoned, and from here on a goroutine that tries to park unwinds
// instead. The first non-nil panicVal is what Run re-panics with. Caller
// holds e.mu.
func (e *Env) finish(panicVal any) {
	if e.panicVal == nil {
		e.panicVal = panicVal
	}
	if e.done {
		return
	}
	e.done = true
	e.timers = nil
	for w := e.all; w != nil; w = w.nextAll {
		if w.parked {
			w.poisoned = true
			e.wake(w)
		}
	}
}

// Sleep blocks the calling managed goroutine for d of virtual time.
// Non-positive durations yield (sleep for zero time) to preserve event
// ordering fairness.
func (e *Env) Sleep(d time.Duration) {
	e.mu.Lock()
	e.park(e.newWaiter(true, d), nil)
}

// Go spawns fn as a managed goroutine. A panic in fn ends the simulation
// and is re-raised by Run. Once the environment is done there is nothing
// left to run fn in, and Go does nothing.
func (e *Env) Go(fn func()) {
	e.spawn(fn, false)
}

func (e *Env) spawn(fn func(), root bool) {
	e.mu.Lock()
	if e.done {
		e.mu.Unlock()
		return
	}
	e.runnable++
	e.managed.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.exit(root)
		fn()
	}()
}

// exit is the deferred end of every managed goroutine, reached by return,
// by the Goexit of a poisoned wake-up, or by a panic, which it recovers.
func (e *Env) exit(root bool) {
	defer e.managed.Done()
	pv := recover()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runnable--
	switch {
	case pv != nil || root:
		e.finish(pv)
	case e.runnable == 0:
		e.advance()
	}
}

// Run executes fn as the root managed goroutine. When fn returns — or the
// simulation deadlocks, or any managed goroutine panics — the environment is
// torn down: the clock stops and every managed goroutine still parked in a
// primitive of this package unwinds with runtime.Goexit, running its deferred
// calls and nothing else. Run returns once all of them have exited, so a
// finished simulation leaves no goroutine behind; it then re-panics with the
// deadlock report or the first panic value, if any. Run must be called from an
// unmanaged goroutine (typically the test or main goroutine), and at most
// once per Env.
func (e *Env) Run(fn func()) {
	e.spawn(fn, true)
	e.managed.Wait()
	e.mu.Lock()
	pv := e.panicVal
	e.mu.Unlock()
	if pv != nil {
		panic(pv)
	}
}

// RunFor executes fn as the root goroutine but returns after d of virtual
// time even if fn has not finished. Convenient for open-ended workloads.
func (e *Env) RunFor(d time.Duration, fn func()) {
	e.Run(func() {
		e.Go(fn)
		e.Sleep(d)
	})
}

// String describes the environment state, for debugging.
func (e *Env) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("simtime.Env{now=%v runnable=%d timers=%d done=%v}",
		e.now, e.runnable, e.timers.Len(), e.done)
}
