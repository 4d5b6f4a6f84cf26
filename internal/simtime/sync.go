//go:build go1.23

package simtime

import (
	"slices"
	"sync"
	"time"
)

// Cond is a condition variable whose Wait parks the goroutine in virtual
// time, like sync.Cond but scheduler-aware. L, if not nil, must be held
// when calling Wait and is re-acquired before Wait returns — or before Wait
// unwinds the goroutine at teardown, so a caller that sleeps on a Cond
// releases L in a defer. L may be nil: only one managed goroutine runs at a
// time, so state that only managed goroutines touch needs no lock. Signal
// and Broadcast only make waiters ready: they run once the caller parks.
type Cond struct {
	L       sync.Locker
	env     *Env
	waiters []*thread // parked and not yet woken, in arrival order
}

// NewCond returns a condition variable bound to l.
func (e *Env) NewCond(l sync.Locker) *Cond {
	return &Cond{L: l, env: e}
}

// Wait atomically releases c.L, parks until Signal/Broadcast, then
// re-acquires c.L.
func (c *Cond) Wait() {
	c.env.park(c.enqueue(), c.L)
}

// WaitTimeout is Wait with a virtual-time timeout. It reports true if the
// wait timed out (rather than being signaled).
func (c *Cond) WaitTimeout(d time.Duration) bool {
	t := c.enqueue()
	c.env.arm(t, d)
	return c.env.park(t, c.L)
}

// enqueue queues the running thread on c and releases c.L, ready to park.
func (c *Cond) enqueue() *thread {
	t := c.env.running()
	t.cond = c
	c.waiters = append(c.waiters, t)
	if c.L != nil {
		c.L.Unlock()
	}
	return t
}

// remove takes t, whose timer fired, out of the waiters list.
func (c *Cond) remove(t *thread) {
	i := slices.Index(c.waiters, t)
	c.waiters = slices.Delete(c.waiters, i, i+1)
}

// Signal makes one waiting goroutine ready, in FIFO order.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	t := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1)
	c.env.fire(t)
}

// Broadcast makes all waiting goroutines ready.
func (c *Cond) Broadcast() {
	for _, t := range c.waiters {
		c.env.fire(t)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Queue is an unbounded FIFO queue of items; Pop blocks in virtual time
// until an item is available.
type Queue[T any] struct {
	cond  Cond
	items fifo[T]
}

// NewQueue returns an empty queue.
func NewQueue[T any](e *Env) *Queue[T] {
	return &Queue[T]{cond: Cond{env: e}}
}

// Push appends an item; it never blocks.
func (q *Queue[T]) Push(item T) {
	q.items.push(item)
	q.cond.Signal()
}

// Pop removes and returns the oldest item, blocking until one exists.
func (q *Queue[T]) Pop() T {
	for q.items.len() == 0 {
		q.cond.Wait()
	}
	return q.items.pop()
}

// PopTimeout is Pop with a virtual-time timeout; ok is false on timeout.
func (q *Queue[T]) PopTimeout(d time.Duration) (item T, ok bool) {
	env := q.cond.env
	deadline := env.Now() + d
	for q.items.len() == 0 {
		remaining := deadline - env.Now()
		if remaining <= 0 {
			return item, false
		}
		if q.cond.WaitTimeout(remaining) && q.items.len() == 0 {
			return item, false
		}
	}
	return q.items.pop(), true
}

// Len returns the current number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// fifo is a queue on a slice: buf[head:] are queued, the slots before head
// are spent. A push into a full slice that is at least half spent slides
// the queue down instead of growing it, so a queue that never drains still
// reuses its memory.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(x T) {
	if f.head > 0 && 2*f.head >= len(f.buf) && len(f.buf) == cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, x)
}

// peek returns the oldest item. The fifo must not be empty.
func (f *fifo[T]) peek() T { return f.buf[f.head] }

// pop removes and returns the oldest item. The fifo must not be empty.
func (f *fifo[T]) pop() T {
	x := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return x
}

// Semaphore is a counting semaphore with FIFO wakeup, used to model
// bounded resources such as RPC handler pools.
type Semaphore struct {
	cond  Cond
	avail int
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Env) NewSemaphore(n int) *Semaphore {
	return &Semaphore{cond: Cond{env: e}, avail: n}
}

// Acquire takes one permit, blocking in virtual time until available.
func (s *Semaphore) Acquire() {
	for s.avail <= 0 {
		s.cond.Wait()
	}
	s.avail--
}

// TryAcquire takes one permit only if immediately available.
func (s *Semaphore) TryAcquire() bool {
	if s.avail <= 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit.
func (s *Semaphore) Release() {
	s.avail++
	s.cond.Signal()
}

// WaitGroup is a scheduler-aware sync.WaitGroup analog.
type WaitGroup struct {
	cond Cond
	n    int
}

// NewWaitGroup returns a WaitGroup bound to e.
func (e *Env) NewWaitGroup() *WaitGroup {
	return &WaitGroup{cond: Cond{env: e}}
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("simtime: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	for wg.n > 0 {
		wg.cond.Wait()
	}
}
