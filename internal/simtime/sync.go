package simtime

import (
	"slices"
	"sync"
	"time"
)

// Cond is a condition variable whose Wait parks the goroutine in virtual
// time, like sync.Cond but scheduler-aware. L must be held when calling Wait
// and is re-acquired before Wait returns — or before Wait unwinds the
// goroutine at teardown, so a caller that sleeps on a Cond releases L in a
// defer. Signal and Broadcast must be called from managed goroutines.
type Cond struct {
	L       sync.Locker
	env     *Env
	waiters []*waiter // parked and not yet woken, in arrival order
}

// NewCond returns a condition variable bound to l.
func (e *Env) NewCond(l sync.Locker) *Cond {
	return &Cond{L: l, env: e}
}

// Wait atomically releases c.L, parks until Signal/Broadcast, then
// re-acquires c.L.
func (c *Cond) Wait() {
	c.env.mu.Lock()
	c.wait(c.env.newWaiter(false, 0))
}

// WaitTimeout is Wait with a virtual-time timeout. It reports true if the
// wait timed out (rather than being signaled).
func (c *Cond) WaitTimeout(d time.Duration) bool {
	c.env.mu.Lock()
	return c.wait(c.env.newWaiter(true, d))
}

// wait queues w on c and parks. Caller holds env.mu and c.L.
func (c *Cond) wait(w *waiter) (timedOut bool) {
	w.cond = c
	c.waiters = append(c.waiters, w)
	c.L.Unlock()
	return c.env.park(w, c.L)
}

// remove takes w, whose timer fired, out of the waiters list. Caller holds
// env.mu.
func (c *Cond) remove(w *waiter) {
	i := slices.Index(c.waiters, w)
	c.waiters = slices.Delete(c.waiters, i, i+1)
}

// Signal unparks one waiting goroutine, in FIFO order.
func (c *Cond) Signal() {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	if len(c.waiters) == 0 || c.env.done {
		return
	}
	w := c.waiters[0]
	c.waiters = slices.Delete(c.waiters, 0, 1)
	c.env.fire(w)
}

// Broadcast unparks all waiting goroutines.
func (c *Cond) Broadcast() {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	if c.env.done {
		return
	}
	for _, w := range c.waiters {
		c.env.fire(w)
	}
	c.waiters = c.waiters[:0]
}

// Queue is an unbounded FIFO queue of items; Pop blocks in virtual time
// until an item is available.
type Queue[T any] struct {
	mu    sync.Mutex
	cond  *Cond
	items []T // items[head:] are queued; the slots before head are spent
	head  int
	env   *Env
}

// NewQueue returns an empty queue.
func NewQueue[T any](e *Env) *Queue[T] {
	q := &Queue[T]{env: e}
	q.cond = e.NewCond(&q.mu)
	return q
}

// Push appends an item; it never blocks.
func (q *Queue[T]) Push(item T) {
	q.mu.Lock()
	if q.head > 0 && 2*q.head >= len(q.items) && len(q.items) == cap(q.items) {
		// Full and at least half spent: slide down instead of growing.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.cond.Signal()
}

// take removes the oldest item. Caller holds q.mu and has seen Len() > 0.
func (q *Queue[T]) take() T {
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return item
}

// Pop removes and returns the oldest item, blocking until one exists.
func (q *Queue[T]) Pop() T {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	return q.take()
}

// PopTimeout is Pop with a virtual-time timeout; ok is false on timeout.
func (q *Queue[T]) PopTimeout(d time.Duration) (item T, ok bool) {
	deadline := q.env.Now() + d
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		remaining := deadline - q.env.Now()
		if remaining <= 0 {
			return item, false
		}
		if q.cond.WaitTimeout(remaining) && len(q.items) == 0 {
			return item, false
		}
	}
	return q.take(), true
}

// Len returns the current number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Semaphore is a counting semaphore with FIFO wakeup, used to model
// bounded resources such as RPC handler pools.
type Semaphore struct {
	mu    sync.Mutex
	cond  *Cond
	avail int
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Env) NewSemaphore(n int) *Semaphore {
	s := &Semaphore{avail: n}
	s.cond = e.NewCond(&s.mu)
	return s
}

// Acquire takes one permit, blocking in virtual time until available.
func (s *Semaphore) Acquire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.avail <= 0 {
		s.cond.Wait()
	}
	s.avail--
}

// TryAcquire takes one permit only if immediately available.
func (s *Semaphore) TryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.avail <= 0 {
		return false
	}
	s.avail--
	return true
}

// Release returns one permit.
func (s *Semaphore) Release() {
	s.mu.Lock()
	s.avail++
	s.mu.Unlock()
	s.cond.Signal()
}

// WaitGroup is a scheduler-aware sync.WaitGroup analog.
type WaitGroup struct {
	mu   sync.Mutex
	cond *Cond
	n    int
}

// NewWaitGroup returns a WaitGroup bound to e.
func (e *Env) NewWaitGroup() *WaitGroup {
	wg := &WaitGroup{}
	wg.cond = e.NewCond(&wg.mu)
	return wg
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.mu.Lock()
	wg.n += delta
	if wg.n < 0 {
		wg.mu.Unlock()
		panic("simtime: negative WaitGroup counter")
	}
	done := wg.n == 0
	wg.mu.Unlock()
	if done {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait() {
	wg.mu.Lock()
	defer wg.mu.Unlock()
	for wg.n > 0 {
		wg.cond.Wait()
	}
}
