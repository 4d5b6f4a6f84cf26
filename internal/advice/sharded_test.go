package advice

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
	return tuple.Tuple{tuple.String(k)}.Key([]int{0})
}

// drainSums folds a drained merger's groups into key -> summed value.
func drainSums(t *testing.T, into map[string]int64, acc *Merger) {
	t.Helper()
	for _, g := range acc.Groups() {
		if len(g.States) != 1 {
			t.Fatalf("group %q has %d states", g.Key, len(g.States))
		}
		into[g.Key] += g.States[0].Result().Int()
	}
}

func TestShardedConcurrentAddExactness(t *testing.T) {
	const (
		workers = 8
		keys    = 16
		perKey  = 500
	)
	s := NewShardedAccumulator(aggOp(), 0)
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
	drainSums(t, got, s.Drain())
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
	s := NewShardedAccumulator(aggOp(), 0)
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
	// one drain (the steal-and-merge swap moves whole shard contents).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	got := map[string]int64{}
	for {
		select {
		case <-done:
			drainSums(t, got, s.Drain())
			if got[gkey("k")] != workers*perW {
				t.Fatalf("total = %d, want %d (tuples lost or duplicated across drains)",
					got[gkey("k")], workers*perW)
			}
			return
		default:
			drainSums(t, got, s.Drain())
		}
	}
}

func TestShardedDrainPreservesFirstSeenOrder(t *testing.T) {
	s := NewShardedAccumulator(aggOp(), 4)
	const n = 32
	// Adds from distinct goroutines (run to completion one at a time) can
	// land in distinct shards; the drain must still present groups in
	// global first-seen order.
	for i := 0; i < n; i++ {
		done := make(chan struct{})
		i := i
		go func() {
			defer close(done)
			s.Add(tuple.Tuple{tuple.String(fmt.Sprintf("k%02d", i)), tuple.Int(1)})
		}()
		<-done
	}
	groups := s.Drain().Groups()
	if len(groups) != n {
		t.Fatalf("drained %d groups, want %d", len(groups), n)
	}
	for i, g := range groups {
		want := tuple.Tuple{tuple.String(fmt.Sprintf("k%02d", i))}.Key([]int{0})
		if g.Key != want {
			t.Fatalf("group[%d].Key = %q, want %q (first-seen order lost)", i, g.Key, want)
		}
	}
}

func TestShardedRawRowsAndDropAccounting(t *testing.T) {
	s := NewShardedAccumulator(rawOp(), 0)
	s.SetLimits(Limits{MaxRaws: 4})
	const total = 200
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
	kept := len(s.Drain().Raws())
	dropped := s.RawsDropped()
	if int64(kept)+dropped != total {
		t.Fatalf("kept %d + dropped %d != %d offered (drop accounting leaks)",
			kept, dropped, total)
	}
	if dropped == 0 {
		t.Fatalf("MaxRaws=4 per shard kept all %d rows; cap not applied", kept)
	}
	// Counters are cumulative: a second drain must not reset them.
	if got := s.RawsDropped(); got != dropped {
		t.Errorf("RawsDropped changed %d -> %d across reads", dropped, got)
	}
}

func TestShardedGroupOverflowAccounting(t *testing.T) {
	s := NewShardedAccumulator(aggOp(), 2)
	s.SetLimits(Limits{MaxGroups: 2})
	const distinct = 64
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
	drainSums(t, got, s.Drain())
	if s.GroupsOverflowed() == 0 {
		t.Fatal("MaxGroups=2 never overflowed across 64 distinct keys")
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != distinct {
		t.Fatalf("SUM over drained groups (incl. overflow) = %d, want %d", total, distinct)
	}
	overflowKey := OverflowKey
	if _, ok := got[overflowKey]; !ok {
		t.Error("no overflow group in drain despite overflow count > 0")
	}
}

func TestShardedEmptyHintConservative(t *testing.T) {
	s := NewShardedAccumulator(aggOp(), 0)
	if !s.Empty() {
		t.Fatal("fresh accumulator not Empty")
	}
	s.Add(tuple.Tuple{tuple.String("k"), tuple.Int(1)})
	if s.Empty() {
		t.Fatal("Empty() == true while holding a tuple (hint must never under-report)")
	}
	if got := len(s.Drain().Groups()); got != 1 {
		t.Fatalf("drained %d groups, want 1", got)
	}
	if !s.Empty() {
		t.Fatal("not Empty after drain")
	}
}

func TestShardedSingleShardAblation(t *testing.T) {
	s := NewShardedAccumulator(aggOp(), 1)
	if s.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", s.Shards())
	}
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
	drainSums(t, got, s.Drain())
	if got[gkey("k")] != 4000 {
		t.Fatalf("single-shard sum = %d, want 4000", got[gkey("k")])
	}
}
