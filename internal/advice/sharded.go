package advice

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// ShardedAccumulator stripes an Accumulator across GOMAXPROCS-many shards
// so concurrent tracepoint fires on different goroutines never contend on
// one mutex or one group map. Each shard is a full Accumulator behind its
// own cache-line-padded lock; Drain steals every shard's contents and
// absorbs them into a single Merger (merge-on-flush).
//
// The striping preserves exact aggregation semantics because partial
// aggregate states merge associatively and commutatively (see package agg):
// which shard a tuple folds into only changes where its partial state
// lives between flushes, never the merged result. Global first-seen group
// order is preserved across shards via a shared creation-sequence stamp.
//
// Limits semantics: each shard carries the full configured Limits, so
// between flushes the sharded accumulator can hold up to shards×MaxGroups
// groups and shards×MaxRaws raw rows. Drop counters remain exact — every
// row a shard evicts is counted, and the counts survive Drain: a stolen
// accumulator hands its running totals to the one that replaces it.
type ShardedAccumulator struct {
	Op     *EmitOp
	shards []accShard
	hints  sync.Pool     // *shardHint; per-P private slots give shard affinity
	next   atomic.Uint64 // round-robin assignment for fresh hints
	seq    atomic.Int64  // shared group-creation sequence across shards

	// pending over-approximates the number of added-but-undrained tuples:
	// incremented before an Add lands, decremented by Drain for the adds it
	// stole. It can read >0 for an empty accumulator (an Add in flight),
	// never 0 for one holding data — Empty() is a conservative fast path.
	pending atomic.Int64
}

// accShard pads each shard's lock and accumulator pointer out to its own
// cache-line neighborhood (two 64-byte lines, to defeat the adjacent-line
// prefetcher) so shards written by different cores never false-share.
type accShard struct {
	mu   sync.Mutex
	acc  *Accumulator
	adds int64 // tuples folded into acc since it was last stolen
	_    [104]byte
}

// shardHint is the pooled per-P affinity token: sync.Pool's private slots
// are per-P, so a goroutine usually gets back the hint it (or the last
// goroutine on its P) used, steering repeat fires to the same shard
// without runtime internals.
type shardHint struct{ idx int }

// NewShardedAccumulator returns an empty sharded accumulator for op with
// nshards shards; nshards <= 0 selects GOMAXPROCS. One shard degenerates
// to a mutex-guarded Accumulator (the "sharded off" ablation).
func NewShardedAccumulator(op *EmitOp, nshards int) *ShardedAccumulator {
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	s := &ShardedAccumulator{Op: op, shards: make([]accShard, nshards)}
	for i := range s.shards {
		a := NewAccumulator(op)
		a.seqSrc = &s.seq
		s.shards[i].acc = a
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedAccumulator) Shards() int { return len(s.shards) }

// SetLimits replaces the per-shard limits (zero value = defaults). Callers
// set limits once, before the accumulator is shared with concurrent
// adders.
func (s *ShardedAccumulator) SetLimits(l Limits) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.acc.SetLimits(l)
		sh.mu.Unlock()
	}
}

// pick selects the caller's shard: the pooled hint's shard when one is
// available (per-P affinity), else a fresh round-robin assignment.
func (s *ShardedAccumulator) pick() *accShard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	h, _ := s.hints.Get().(*shardHint)
	if h == nil {
		h = &shardHint{idx: int(s.next.Add(1)-1) % len(s.shards)}
	}
	sh := &s.shards[h.idx]
	s.hints.Put(h)
	return sh
}

// Add folds one emitted working tuple into the caller's shard. Safe for
// concurrent use.
func (s *ShardedAccumulator) Add(w tuple.Tuple) { s.AddWeighted(w, 1) }

// AddWeighted folds one emitted working tuple with a sampling weight
// into the caller's shard. Safe for concurrent use.
func (s *ShardedAccumulator) AddWeighted(w tuple.Tuple, weight float64) {
	s.pending.Add(1)
	sh := s.pick()
	sh.mu.Lock()
	sh.acc.AddWeighted(w, weight)
	sh.adds++
	sh.mu.Unlock()
}

// Empty reports whether the accumulator definitely holds no data. It is a
// conservative hint: a false result may race with an in-flight Add, so
// callers that act on non-emptiness must re-check the drained contents.
func (s *ShardedAccumulator) Empty() bool { return s.pending.Load() == 0 }

// Drain steals every shard's accumulator — each swap holds that shard's
// lock only long enough to exchange a pointer, leaving an empty one sized
// from what was stolen — and merges the stolen contents, outside all
// locks, into one Merger in global first-seen group order: the first
// non-empty shard's own merger, as it is when no other shard held data.
// Concurrent Adds land either in a stolen accumulator (this drain) or a
// fresh one (the next); no tuple is lost or double-drained.
func (s *ShardedAccumulator) Drain() *Merger {
	var out *Merger
	var drained int64
	absorbed := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.adds == 0 {
			sh.mu.Unlock()
			continue
		}
		old := sh.acc
		drained += sh.adds
		sh.acc = &Accumulator{Merger: old.next()}
		sh.adds = 0
		sh.mu.Unlock()

		if out == nil {
			out = &old.Merger
		} else {
			out.Absorb(&old.Merger)
			absorbed = true
		}
	}
	if out == nil {
		return NewMerger(s.Op, Unbounded)
	}
	s.pending.Add(-drained)
	if absorbed {
		slices.SortFunc(out.order, func(a, b *Group) int { return cmp.Compare(a.seq, b.seq) })
	}
	return out
}

// RawsDropped returns how many raw rows FIFO eviction has discarded across
// all shards, cumulative across Drains.
func (s *ShardedAccumulator) RawsDropped() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.acc.rawsDropped
		sh.mu.Unlock()
	}
	return total
}

// GroupsOverflowed returns how many rows were folded into overflow groups
// across all shards, cumulative across Drains.
func (s *ShardedAccumulator) GroupsOverflowed() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.acc.groupsOverflowed
		sh.mu.Unlock()
	}
	return total
}
