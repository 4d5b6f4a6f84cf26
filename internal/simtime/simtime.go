//go:build go1.23

// Package simtime provides a virtual-time discrete-event scheduler for
// simulating distributed systems deterministically and quickly.
//
// Code under simulation runs in "managed" goroutines spawned with Env.Go or
// Env.Run. Managed goroutines must block only through the primitives in this
// package (Sleep, Cond, Queue, Semaphore, WaitGroup, RWLock). Exactly one of
// them runs at a time: it runs until it parks in one of those primitives, and
// then Run resumes the next goroutine made ready by Go, Signal or Broadcast,
// in FIFO order. Only when none is ready does the clock advance, to the
// earliest pending timer — so a simulated experiment spanning minutes of
// virtual time completes in milliseconds of real time, a Sleep(d) wakes at
// precisely now+d, and the schedule is a function of the simulation alone.
//
// Nothing runs concurrently, so nothing here takes a lock: an Env and its
// primitives may be used only from managed goroutines, or before or after
// Run.
//
// A simulation ends when the root function of Env.Run returns. Goroutines
// still parked then do not resume: they unwind with runtime.Goexit, running
// their deferred calls only, and Run returns after the last of them has
// exited. The one rule this imposes on simulated code: a lock held across a
// Cond wait is released in a defer, because the wait re-acquires it before
// unwinding.
package simtime

import (
	"fmt"
	"iter"
	"runtime"
	"sync"
	"time"
)

// Env is a simulation environment: a virtual clock, the timers and ready
// FIFO that decide which managed goroutine runs next, and the one that runs.
type Env struct {
	now      time.Duration
	seq      int64
	timers   int                     // armed timers
	lanes    laneHeap                // the lanes holding a timer, by their heads
	byDur    map[time.Duration]*lane // the same lanes and some empty ones, by duration
	spare    []*lane                 // empty lanes out of byDur, for reuse
	ready    fifo[*thread]
	cur      *thread   // the running thread
	live     []*thread // every thread that has not exited, in no order
	done     bool
	panicVal any
}

// NewEnv returns a fresh environment with the clock at zero.
func NewEnv() *Env {
	return &Env{byDur: map[time.Duration]*lane{}}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Done reports whether the environment has finished: the root function of Run
// has returned, the simulation deadlocked, or a managed goroutine panicked.
// A loop that parks every iteration need not poll it — its next park unwinds
// the goroutine — but a loop that can spin without parking must.
func (e *Env) Done() bool { return e.done }

// thread is one managed goroutine, run as a coroutine of Run's loop. It
// parks at most once at a time, so it is also its own parking spot.
type thread struct {
	resume func() (struct{}, bool) // runs the thread until it parks or exits
	yield  func(struct{}) bool     // parks the thread: control goes back to Run
	slot   int                     // index in Env.live
	cond   *Cond                   // the Cond whose waiters list holds it, if any

	// Its timer, if lane is not nil: due at at, armed seq-th, linked
	// between prev and next in the lane of its duration.
	at         time.Duration
	seq        int64
	lane       *lane
	prev, next *thread

	timedOut bool // woken by its timer
	poisoned bool // resumed by teardown: the thread must unwind
}

// Go spawns fn as a managed goroutine. It first runs once the caller parks,
// after the goroutines made ready before it. A panic in fn ends the
// simulation and is re-raised by Run. Once the environment is done there is
// nothing left to run fn in, and Go does nothing.
func (e *Env) Go(fn func()) {
	e.spawn(fn, false)
}

func (e *Env) spawn(fn func(), root bool) {
	if e.done {
		return
	}
	t := &thread{slot: len(e.live)}
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer e.exit(t, root)
		fn()
	})
	e.live = append(e.live, t)
	e.ready.push(t)
}

// exit is the deferred end of every thread, reached by return, by the Goexit
// of a poisoned wake-up, or by a panic, which it recovers.
func (e *Env) exit(t *thread, root bool) {
	pv := recover()
	last := len(e.live) - 1
	e.live[t.slot], e.live[last].slot = e.live[last], t.slot
	e.live[last] = nil
	e.live = e.live[:last]
	if pv != nil || root {
		e.finish(pv)
	}
}

// Run executes fn as the root managed goroutine, then every goroutine it
// starts, one at a time, until fn returns — or the simulation deadlocks, or
// any managed goroutine panics. Then the environment is torn down: the clock
// stops and every managed goroutine still parked in a primitive of this
// package unwinds with runtime.Goexit, running its deferred calls and
// nothing else. Run returns once all of them have exited, so a finished
// simulation leaves no goroutine behind; it then re-panics with the deadlock
// report or the first panic value, if any. Run must be called from an
// unmanaged goroutine (typically the test or main goroutine), and at most
// once per Env. A managed goroutine that calls runtime.Goexit itself ends the
// simulation and the goroutine that called Run.
func (e *Env) Run(fn func()) {
	e.spawn(fn, true)
	defer e.reap()
	for t := e.next(); t != nil; t = e.next() {
		e.cur = t
		t.resume()
	}
}

// next picks the thread to run: the head of the ready FIFO, or else the
// owner of the earliest timer, with the clock moved to it. With neither, the
// simulation is deadlocked and next ends it. nil means the simulation is
// over.
func (e *Env) next() *thread {
	if e.done {
		return nil
	}
	if e.ready.len() > 0 {
		return e.ready.pop()
	}
	if e.timers == 0 {
		e.finish("simtime: deadlock — all managed goroutines blocked with no pending timers")
		return nil
	}
	t := e.lanes[0].head
	e.disarm(t)
	e.now = t.at
	t.timedOut = true
	if t.cond != nil {
		t.cond.remove(t)
	}
	return t
}

// finish ends the simulation: the clock stops, and from here on a thread
// that tries to park unwinds instead. The first non-nil panicVal is what Run
// re-panics with.
func (e *Env) finish(panicVal any) {
	if e.panicVal == nil {
		e.panicVal = panicVal
	}
	e.done = true
}

// reap is Run's teardown. It resumes every live thread until it has exited:
// first the ready ones, which run on to their next park and unwind there,
// then the parked ones, poisoned, which unwind from their park. iter.Pull
// carries a thread's Goexit out to whoever resumed it, so each is resumed
// from a goroutine of its own.
func (e *Env) reap() {
	e.finish(nil)
	for len(e.live) > 0 {
		var t *thread
		if e.ready.len() > 0 {
			t = e.ready.pop()
		} else {
			t = e.live[len(e.live)-1]
			t.poisoned = true
		}
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			e.cur = t
			t.resume()
		}()
		<-exited
	}
	e.cur = nil
	if e.panicVal != nil {
		panic(e.panicVal)
	}
}

// running returns the running thread, about to park. A thread may not park
// once the environment is done: it unwinds instead.
func (e *Env) running() *thread {
	if e.done {
		runtime.Goexit()
	}
	return e.cur
}

// arm sets t's timer to fire d from now, at the tail of the lane of
// timers armed with d. A lane is in due order: now never falls and seq
// always rises, so a timer armed later with the same duration falls due
// later, or at the same instant and later in seq. The lane heap orders the
// lanes by their heads, so the earliest timer is the head of its root.
func (e *Env) arm(t *thread, d time.Duration) {
	d = max(d, 0)
	e.seq++
	t.at, t.seq = e.now+d, e.seq
	l := e.byDur[d]
	if l == nil {
		l = e.newLane(d)
	}
	t.lane, t.prev = l, l.tail
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
		e.lanes.push(l)
	}
	l.tail = t
	e.timers++
}

// newLane adds an empty lane for d to the map. Emptied lanes stay in the
// map, where the next timer of their duration finds them, until the map
// holds twice as many lanes as the heap: then the empty ones go to the
// spare list at once. A lane taken out as it emptied would cost a map
// delete and insert for nearly every Sleep of a sleeper that alternates
// two durations.
func (e *Env) newLane(d time.Duration) *lane {
	if len(e.byDur) >= 2*len(e.lanes)+8 {
		for k, l := range e.byDur {
			if l.head == nil {
				delete(e.byDur, k)
				e.spare = append(e.spare, l)
			}
		}
	}
	var l *lane
	if n := len(e.spare); n > 0 {
		l, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		l = new(lane)
	}
	l.d = d
	e.byDur[d] = l
	return l
}

// disarm unlinks t's timer from its lane. A lane it empties leaves the
// heap; a lane whose head it was sinks to its new head's place.
func (e *Env) disarm(t *thread) {
	l, head := t.lane, t.prev == nil
	if head {
		l.head = t.next
	} else {
		t.prev.next = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.lane, t.prev, t.next = nil, nil, nil
	e.timers--
	switch {
	case l.head == nil:
		e.lanes.remove(l.idx)
	case head:
		e.lanes.down(l.idx)
	}
}

// park suspends the running thread t until it is fired or its timer
// expires, and reports whether it was the timer. relock is the lock a Cond
// wait released, if any: park re-acquires it before returning — and before
// a poisoned thread unwinds, so the caller's deferred Unlock stays valid.
func (e *Env) park(t *thread, relock sync.Locker) (timedOut bool) {
	t.yield(struct{}{})
	if relock != nil {
		relock.Lock()
	}
	if t.poisoned {
		runtime.Goexit()
	}
	timedOut = t.timedOut
	t.timedOut, t.cond = false, nil
	return timedOut
}

// fire makes the parked thread t ready, cancelling its timer. Once the
// environment is done it does nothing: teardown resumes every thread.
func (e *Env) fire(t *thread) {
	if e.done {
		return
	}
	if t.lane != nil {
		e.disarm(t)
	}
	e.ready.push(t)
}

// Sleep blocks the calling managed goroutine for d of virtual time.
// Non-positive durations yield (sleep for zero time) to preserve event
// ordering fairness.
func (e *Env) Sleep(d time.Duration) {
	t := e.running()
	e.arm(t, d)
	e.park(t, nil)
}

// String describes the environment state, for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("simtime.Env{now=%v ready=%d timers=%d live=%d done=%v}",
		e.now, e.ready.len(), e.timers, len(e.live), e.done)
}

// lane is the armed timers of one duration, in due order: a list through
// their threads.
type lane struct {
	d          time.Duration
	head, tail *thread
	idx        int // index in the lane heap
}

// laneHeap is a binary min-heap of lanes by their heads' (at, seq), a total
// order, so timers fall due in exactly one order. It keeps each lane's idx
// equal to its index.
type laneHeap []*lane

func (h laneHeap) less(i, j int) bool {
	a, b := h[i].head, h[j].head
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h laneHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *laneHeap) push(l *lane) {
	l.idx = len(*h)
	*h = append(*h, l)
	h.up(l.idx)
}

// remove deletes the lane at index i.
func (h *laneHeap) remove(i int) {
	last := len(*h) - 1
	h.swap(i, last)
	(*h)[last] = nil
	*h = (*h)[:last]
	if i < last && !h.down(i) {
		h.up(i)
	}
}

func (h laneHeap) up(i int) {
	for i > 0 && h.less(i, (i-1)/2) {
		h.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}

// down sifts the lane at i toward the leaves and reports whether it moved.
func (h laneHeap) down(i int) bool {
	start := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i != start
}
