//go:build go1.23

package simtime

// RWLock is a scheduler-aware readers-writer lock. Unlike sync.RWMutex it
// may be held across virtual-time blocking (Sleep, resource waits): waiters
// park through the environment so the clock keeps advancing.
//
// Acquisition is FIFO with reader batching: waiters are granted the lock in
// arrival order, consecutive readers at the head of the queue enter
// together, and a queued writer blocks later-arriving readers. The explicit
// handoff avoids both writer starvation and the thundering-herd unfairness
// of broadcast-based wakeups (which can starve closed-loop clients
// entirely under heavy contention).
type RWLock struct {
	env     *Env
	readers int
	writer  bool
	queue   fifo[rwWaiter]
}

// rwWaiter is a parked acquirer. It wakes holding the lock: release grants
// it before firing it.
type rwWaiter struct {
	t       *thread
	writing bool
}

// NewRWLock returns an unlocked RWLock.
func (e *Env) NewRWLock() *RWLock {
	return &RWLock{env: e}
}

// RLock acquires the lock for reading. Readers queue behind any earlier
// writer to avoid writer starvation.
func (l *RWLock) RLock() {
	if !l.writer && l.queue.len() == 0 {
		l.readers++
		return
	}
	l.wait(false)
}

// RUnlock releases a read acquisition.
func (l *RWLock) RUnlock() {
	l.readers--
	if l.readers < 0 {
		panic("simtime: RUnlock without RLock")
	}
	if l.readers == 0 {
		l.release()
	}
}

// Lock acquires the lock exclusively.
func (l *RWLock) Lock() {
	if !l.writer && l.readers == 0 && l.queue.len() == 0 {
		l.writer = true
		return
	}
	l.wait(true)
}

// Unlock releases an exclusive acquisition.
func (l *RWLock) Unlock() {
	if !l.writer {
		panic("simtime: Unlock without Lock")
	}
	l.writer = false
	l.release()
}

// wait queues the running thread and parks it until release grants it the
// lock.
func (l *RWLock) wait(writing bool) {
	t := l.env.running()
	l.queue.push(rwWaiter{t: t, writing: writing})
	l.env.park(t, nil)
}

// release hands the lock to the head of the queue: one writer, or a batch of
// consecutive readers.
func (l *RWLock) release() {
	if l.queue.len() == 0 {
		return
	}
	if l.queue.peek().writing {
		if l.readers > 0 {
			return // readers still draining
		}
		l.writer = true
		l.env.fire(l.queue.pop().t)
		return
	}
	for l.queue.len() > 0 && !l.queue.peek().writing {
		l.readers++
		l.env.fire(l.queue.pop().t)
	}
}
