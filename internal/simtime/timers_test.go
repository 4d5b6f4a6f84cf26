//go:build go1.23

package simtime

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/randtest"
)

// TestTimersFireInArmOrder runs seeded random scripts of Sleeps and
// Cond.WaitTimeouts — durations from a few recurring classes, one-offs and
// zero, some waits cancelled by Signal or Broadcast and some timing out —
// and checks the timers against the model: every timer that fires does so
// at exactly its deadline, the fired ones fire in (deadline, arm order)
// order, and a cancelled one is woken no later than its deadline.
func TestTimersFireInArmOrder(t *testing.T) {
	randtest.Check(t, 40, 1, timerScript)
}

// armed is one timer of a script: its deadline, its place in arm order,
// and what became of it.
type armed struct {
	at     time.Duration
	seq    int
	fired  bool
	wokeAt time.Duration
}

// timerScript runs the script of seed and returns how its timers broke
// the model, if they did.
func timerScript(seed int64) error {
	const (
		goroutines = 24
		steps      = 60
	)
	classes := []time.Duration{3 * time.Microsecond, 5 * time.Microsecond, 15 * time.Microsecond, 200 * time.Microsecond}
	var (
		timers []*armed
		fired  []int // seq of each fired timer, in the order it fired
	)
	e := NewEnv()
	e.Run(func() {
		conds := []*Cond{e.NewCond(nil), e.NewCond(nil), e.NewCond(nil)}
		wg := e.NewWaitGroup()
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
			e.Go(func() {
				defer wg.Done()
				for range steps {
					var d time.Duration
					switch r := rng.Intn(10); {
					case r < 7:
						d = classes[rng.Intn(len(classes))]
					case r < 9:
						d = time.Duration(rng.Intn(40)) * time.Microsecond
					default:
						d = 0
					}
					tm := &armed{at: e.Now() + d, seq: len(timers)}
					timers = append(timers, tm)
					switch r := rng.Intn(10); {
					case r < 5:
						e.Sleep(d)
						tm.fired = true
					case r < 8:
						tm.fired = conds[rng.Intn(len(conds))].WaitTimeout(d)
					case r < 9:
						conds[rng.Intn(len(conds))].Signal()
						e.Sleep(d)
						tm.fired = true
					default:
						conds[rng.Intn(len(conds))].Broadcast()
						e.Sleep(d)
						tm.fired = true
					}
					tm.wokeAt = e.Now()
					if tm.fired {
						fired = append(fired, tm.seq)
					}
				}
			})
		}
		wg.Wait()
	})
	var want []int
	for _, tm := range timers {
		switch {
		case tm.fired && tm.wokeAt != tm.at:
			return fmt.Errorf("timer %d fired at %v, due at %v", tm.seq, tm.wokeAt, tm.at)
		case !tm.fired && tm.wokeAt > tm.at:
			return fmt.Errorf("timer %d was cancelled at %v, after it fell due at %v", tm.seq, tm.wokeAt, tm.at)
		case tm.fired:
			want = append(want, tm.seq)
		}
	}
	slices.SortFunc(want, func(a, b int) int {
		return cmp.Or(cmp.Compare(timers[a].at, timers[b].at), cmp.Compare(a, b))
	})
	if !slices.Equal(fired, want) {
		return fmt.Errorf("%d timers fired in an order other than (deadline, arm order):\n got %v\nwant %v", len(fired), fired, want)
	}
	return nil
}
