//go:build go1.23

package simtime

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines fails unless the process's goroutine count comes back to
// want. Run returns when every managed goroutine has passed its last
// statement; the runtime retires them a moment later, hence the short poll.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines, want %d; stacks:\n%s", got, want, buf[:runtime.Stack(buf, true)])
	}
}

// runRecovered returns what e.Run(fn) panicked with, nil if it returned.
func runRecovered(e *Env, fn func()) (pv any) {
	defer func() { pv = recover() }()
	e.Run(fn)
	return nil
}

// TestRunReapsEveryPrimitive parks one goroutine in every blocking primitive
// and lets the root return: every one of them must unwind through its
// deferred calls, none may execute the statement after its park, and none may
// outlive Run.
func TestRunReapsEveryPrimitive(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()

	var mu sync.Mutex // guards the three below
	deferred := map[string]bool{}
	var resumed []string
	wokenForReal := false
	mark := func(name string) {
		mu.Lock()
		deferred[name] = true
		mu.Unlock()
	}
	resume := func(name string) {
		mu.Lock()
		resumed = append(resumed, name)
		mu.Unlock()
	}
	var want []string
	parked := func(name string, block func()) {
		want = append(want, name)
		e.Go(func() {
			defer mark(name)
			block()
			resume(name)
		})
	}

	e.Run(func() {
		var cmu, gmu sync.Mutex
		cond, gate := e.NewCond(&cmu), e.NewCond(&gmu)
		q := NewQueue[int](e)
		sem := e.NewSemaphore(0)
		wg := e.NewWaitGroup()
		wg.Add(1)
		rw := e.NewRWLock()
		rw.Lock() // held to the end: both kinds of acquirer queue behind it

		parked("Sleep", func() { e.Sleep(time.Hour) })
		parked("Cond.Wait", func() {
			cmu.Lock()
			defer cmu.Unlock()
			cond.Wait()
		})
		parked("Cond.WaitTimeout", func() {
			cmu.Lock()
			defer cmu.Unlock()
			cond.WaitTimeout(time.Hour)
		})
		parked("Queue.Pop", func() { q.Pop() })
		parked("Queue.PopTimeout", func() { q.PopTimeout(time.Hour) })
		parked("Semaphore.Acquire", sem.Acquire)
		parked("WaitGroup.Wait", wg.Wait)
		parked("RWLock.Lock", rw.Lock)
		parked("RWLock.RLock", rw.RLock)
		parked("park in a deferred call", func() {
			defer func() {
				e.Sleep(time.Second)
				resume("deferred call, after its park")
			}()
			e.Sleep(time.Hour)
		})
		// This one is woken by the root's Signal, not by teardown, so it is
		// runnable when the root returns: it carries on to its next park and
		// unwinds there.
		parked("runnable at teardown", func() {
			gmu.Lock()
			defer gmu.Unlock()
			gate.Wait()
			mu.Lock()
			wokenForReal = true
			mu.Unlock()
			e.Sleep(time.Second)
		})

		e.Sleep(time.Minute) // everyone above is parked by now
		gate.Signal()
	})

	waitGoroutines(t, before)
	mu.Lock()
	defer mu.Unlock()
	for _, name := range want {
		if !deferred[name] {
			t.Errorf("%s: deferred call did not run", name)
		}
	}
	if len(resumed) > 0 {
		t.Errorf("resumed after a poisoned park: %v", resumed)
	}
	if !wokenForReal {
		t.Error("the goroutine signalled just before teardown never ran")
	}
	if !e.Done() {
		t.Error("Done() = false after Run")
	}
}

func TestDeadlockPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	pv := runRecovered(e, func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		for i := 0; i < 3; i++ {
			e.Go(func() {
				mu.Lock()
				defer mu.Unlock()
				cond.Wait()
			})
		}
		mu.Lock()
		defer mu.Unlock()
		cond.Wait() // nobody will ever signal
		t.Error("root resumed out of a deadlock")
	})
	if pv == nil {
		t.Fatal("expected panic on deadlock")
	}
	waitGoroutines(t, before)
}

// TestPanicInManagedGoroutineReachesRun: a panic outside the root goroutine
// used to kill the process; it must end the simulation and come out of Run.
func TestPanicInManagedGoroutineReachesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	rootUnwound := false
	pv := runRecovered(e, func() {
		defer func() { rootUnwound = true }()
		e.Go(func() {
			e.Sleep(time.Second)
			panic("boom")
		})
		e.Go(func() {
			e.Sleep(2 * time.Second)
			panic("second panic: must never be reached")
		})
		e.Sleep(time.Hour)
		t.Error("root resumed after another goroutine panicked")
	})
	if pv != "boom" {
		t.Fatalf("Run panicked with %v, want boom", pv)
	}
	if !rootUnwound {
		t.Error("root's deferred call did not run")
	}
	if now := e.Now(); now != time.Second {
		t.Errorf("clock stopped at %v, want 1s", now)
	}
	waitGoroutines(t, before)
}

// TestPanicInRootReachesRun: the root is a managed goroutine like any other.
func TestPanicInRootReachesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	pv := runRecovered(e, func() {
		e.Go(func() { e.Sleep(time.Hour) })
		e.Sleep(time.Second)
		panic("root boom")
	})
	if pv != "root boom" {
		t.Fatalf("Run panicked with %v, want root boom", pv)
	}
	waitGoroutines(t, before)
}

// TestGoexitEndsRun: runtime.Goexit in a managed goroutine (what t.FailNow
// does) ends the simulation; the rest is reaped, and the goroutine that
// called Run unwinds too.
func TestGoexitEndsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	var rootUnwound, returned bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(func() {
			defer func() { rootUnwound = true }()
			e.Go(func() {
				e.Sleep(time.Second)
				runtime.Goexit()
			})
			e.Sleep(time.Hour)
			t.Error("root resumed after another goroutine called Goexit")
		})
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned; want its goroutine unwound")
	}
	if !rootUnwound {
		t.Error("root's deferred call did not run")
	}
	if !e.Done() {
		t.Error("Done() = false after Goexit")
	}
	waitGoroutines(t, before)
}

// TestCondTimeoutLeavesNoStaleWaiter: a waiter that timed out is off the
// cond's list at once, so a later Signal reaches a live waiter and the list
// does not grow with timeouts.
func TestCondTimeoutLeavesNoStaleWaiter(t *testing.T) {
	e := NewEnv()
	e.Run(func() {
		var mu sync.Mutex
		cond := e.NewCond(&mu)
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < 100; i++ {
			if !cond.WaitTimeout(time.Millisecond) {
				t.Fatal("WaitTimeout with no signaller did not time out")
			}
		}
		if n := len(cond.waiters); n != 0 {
			t.Fatalf("%d waiters left on the cond after 100 timeouts", n)
		}
		woken := false
		e.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			cond.Wait()
			woken = true
		})
		mu.Unlock()
		e.Sleep(time.Second)
		cond.Signal()
		e.Sleep(time.Second)
		mu.Lock()
		if !woken {
			t.Fatal("Signal after timeouts did not reach the live waiter")
		}
	})
}

// TestGoAfterDoneDoesNothing: a finished environment starts no goroutine.
func TestGoAfterDoneDoesNothing(t *testing.T) {
	e := NewEnv()
	e.Run(func() {})
	before := runtime.NumGoroutine()
	e.Go(func() { t.Error("ran in a finished environment") })
	waitGoroutines(t, before)
}
