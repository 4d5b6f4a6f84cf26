package advice

// The Accumulator under concurrent adders and drains: exactness, order,
// and the limits, each of which binds once per accumulator. The names
// carry "Sharded" so `make stress` selects them.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// The emit-op helpers aggOp (GroupBy k, SUM(v)) and rawOp (raw rows) are
// shared with safety_test.go.

// gkey is the encoded group key of a one-string group-by tuple.
func gkey(k string) string {
	return string(tuple.Tuple{tuple.String(k)}.AppendKey(nil, []int{0}))
}

// drainSums drains acc and folds its groups into key -> summed value.
// Every tuple the tests add carries v = 1, so the drained SUMs must add up
// to the number of adds Drain reports.
func drainSums(t *testing.T, into map[string]int64, acc *Accumulator) {
	t.Helper()
	groups, raws, adds := acc.Drain()
	if adds == 0 {
		if len(groups)+len(raws) != 0 {
			t.Fatalf("Drain counted no adds but returned %d rows", len(groups)+len(raws))
		}
		return
	}
	var total int64
	for _, g := range groups {
		if len(g.States) != 1 {
			t.Fatalf("group %q has %d states", g.Key, len(g.States))
		}
		v := g.States[0].Result().Int()
		into[g.Key] += v
		total += v
	}
	if total != adds {
		t.Fatalf("drained SUM = %d, but Drain counted %d adds", total, adds)
	}
}

func TestShardedConcurrentAddExactness(t *testing.T) {
	const (
		workers = 8
		keys    = 16
		perKey  = 500
	)
	s := NewAccumulator(aggOp())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := tuple.String(fmt.Sprintf("k%02d", k))
				for i := 0; i < perKey; i++ {
					s.Add(tuple.Tuple{key, tuple.Int(1)})
				}
			}
		}()
	}
	wg.Wait()
	got := map[string]int64{}
	drainSums(t, got, s)
	if len(got) != keys {
		t.Fatalf("drained %d groups, want %d", len(got), keys)
	}
	for k, sum := range got {
		if sum != workers*perKey {
			t.Errorf("key %q sum = %d, want %d", k, sum, workers*perKey)
		}
	}
	if !s.Empty() {
		t.Error("accumulator not empty after full drain")
	}
}

func TestShardedDrainConcurrentWithAdds(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
	)
	s := NewAccumulator(aggOp())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.Add(tuple.Tuple{tuple.String("k"), tuple.Int(1)})
			}
		}()
	}
	// Drain concurrently with the adders: every tuple must land in exactly
	// one drain, and be counted by that drain.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	got := map[string]int64{}
	for {
		select {
		case <-done:
			drainSums(t, got, s)
			if got[gkey("k")] != workers*perW {
				t.Fatalf("total = %d, want %d (tuples lost or duplicated across drains)",
					got[gkey("k")], workers*perW)
			}
			return
		default:
			drainSums(t, got, s)
		}
	}
}

func TestShardedDrainPreservesFirstSeenOrder(t *testing.T) {
	s := NewAccumulator(aggOp())
	const n = 32
	// Adds from distinct goroutines (run to completion one at a time): the
	// drain must present groups in first-seen order.
	for i := 0; i < n; i++ {
		done := make(chan struct{})
		i := i
		go func() {
			defer close(done)
			s.Add(tuple.Tuple{tuple.String(fmt.Sprintf("k%02d", i)), tuple.Int(1)})
		}()
		<-done
	}
	groups, _, _ := s.Drain()
	if len(groups) != n {
		t.Fatalf("drained %d groups, want %d", len(groups), n)
	}
	for i, g := range groups {
		want := gkey(fmt.Sprintf("k%02d", i))
		if g.Key != want {
			t.Fatalf("group[%d].Key = %q, want %q (first-seen order lost)", i, g.Key, want)
		}
	}
}

func TestShardedRawRowsAndDropAccounting(t *testing.T) {
	const maxRaws, total = 4, 200
	s := NewAccumulator(rawOp())
	s.SetLimits(Limits{MaxRaws: maxRaws})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				s.Add(tuple.Tuple{tuple.String("k"), tuple.Int(int64(i))})
			}
		}()
	}
	wg.Wait()
	_, raws, adds := s.Drain()
	kept, dropped := len(raws), rawsDropped(s)
	if adds != total {
		t.Fatalf("Drain counted %d adds, want %d", adds, total)
	}
	if kept != maxRaws || dropped != total-maxRaws {
		t.Fatalf("kept %d and dropped %d of %d rows, want %d and %d (the cap binds once per accumulator)",
			kept, dropped, total, maxRaws, total-maxRaws)
	}
	// Counters are cumulative: a drain must not reset them.
	if got := rawsDropped(s); got != dropped {
		t.Errorf("RawsDropped changed %d -> %d across reads", dropped, got)
	}
}

func TestShardedGroupOverflowAccounting(t *testing.T) {
	const maxGroups, distinct = 2, 64
	s := NewAccumulator(aggOp())
	s.SetLimits(Limits{MaxGroups: maxGroups})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < distinct/4; i++ {
				k := fmt.Sprintf("k%02d", w*(distinct/4)+i)
				s.Add(tuple.Tuple{tuple.String(k), tuple.Int(1)})
			}
		}()
	}
	wg.Wait()
	got := map[string]int64{}
	drainSums(t, got, s)
	folded, ok := got[OverflowKey]
	if !ok {
		t.Fatal("no overflow group in the drain")
	}
	if len(got) != maxGroups+1 {
		t.Fatalf("drained %d groups, want %d real groups plus the overflow group", len(got), maxGroups)
	}
	if folded != distinct-maxGroups || groupsOverflowed(s) != folded {
		t.Fatalf("overflow group holds %d rows and GroupsOverflowed = %d, want both %d",
			folded, groupsOverflowed(s), distinct-maxGroups)
	}
}

func TestShardedEmptyHintConservative(t *testing.T) {
	s := NewAccumulator(aggOp())
	if !s.Empty() {
		t.Fatal("fresh accumulator not Empty")
	}
	if groups, raws, adds := s.Drain(); groups != nil || raws != nil || adds != 0 {
		t.Fatalf("draining a fresh accumulator returned %d rows from %d adds; want none from 0", len(groups)+len(raws), adds)
	}
	s.Add(tuple.Tuple{tuple.String("k"), tuple.Int(1)})
	if s.Empty() {
		t.Fatal("Empty() == true while holding a tuple")
	}
	if groups, _, adds := s.Drain(); len(groups) != 1 || adds != 1 {
		t.Fatalf("drained %d groups from %d adds, want 1 from 1", len(groups), adds)
	}
	if !s.Empty() {
		t.Fatal("not Empty after drain")
	}
}

// NewShardedAccumulator survives for bench/ only: whatever shard count it
// is asked for, it returns the one accumulator.
func TestShardedSingleShardAblation(t *testing.T) {
	s := NewShardedAccumulator(aggOp(), 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(tuple.Tuple{tuple.String("k"), tuple.Int(1)})
			}
		}()
	}
	wg.Wait()
	got := map[string]int64{}
	drainSums(t, got, s)
	if len(got) != 1 || got[gkey("k")] != 4000 {
		t.Fatalf("drained %v, want one group summing to 4000", got)
	}
}
