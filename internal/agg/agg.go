// Package agg implements Pivot Tracing's aggregators — Count, Sum, Min, Max,
// Average — as mergeable partial states. The same state type is used at
// every aggregation stage: pack-time aggregation in baggage (Table 3's
// Combine rewrites), process-local aggregation in agents, and global
// aggregation at the query frontend. Merge is associative and commutative,
// so the stages compose.
package agg

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// Func identifies an aggregation function.
type Func uint8

// Supported aggregators.
const (
	Count Func = iota
	Sum
	Min
	Max
	Average
)

// FromName parses an aggregator name as written in queries (COUNT, SUM...).
func FromName(name string) (Func, bool) {
	switch name {
	case "COUNT":
		return Count, true
	case "SUM":
		return Sum, true
	case "MIN":
		return Min, true
	case "MAX":
		return Max, true
	case "AVERAGE", "AVG":
		return Average, true
	default:
		return 0, false
	}
}

func (f Func) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Average:
		return "AVERAGE"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// Combiner returns the aggregator that merges partial results of f across
// stages: COUNT partials are summed, everything else merges with itself.
// (Table 3 of the paper calls this the aggregator's combiner.)
func (f Func) Combiner() Func {
	if f == Count {
		return Sum
	}
	return f
}

// State is a mergeable partial aggregate: construct one with New or Make
// (the zero value is an empty COUNT). States are plain values — reports
// hold them in slices, copied by assignment.
//
// A state fed only unit-weight values (Add) is exact and carries no
// extra bytes on the wire. Folding any value with a weight != 1
// (AddWeighted — inverse-sampling-rate scaling) marks the state
// inexact; the flag and the weighted sums survive every pairwise Merge,
// so a sampled contribution anywhere in a combiner tree labels the
// final result approximate end to end.
type State struct {
	fn       Func
	anyFloat bool
	seen     bool
	inexact  bool
	count    int64
	sumI     int64
	sumF     float64
	minmax   tuple.Value // current MIN or MAX value

	// Weighted (Horvitz-Thompson) companions to count/sum. Exact states
	// maintain the invariant wcount == float64(count), wsum == sumF, so
	// exact and inexact partials merge without special cases.
	wcount float64 // Σ weight
	wsum   float64 // Σ weight·value (Sum/Average)
}

// New returns an empty partial state for fn.
func New(fn Func) *State { return &State{fn: fn} }

// Make returns an empty partial state for fn, as a value.
func Make(fn Func) State { return State{fn: fn} }

// Fn returns the state's aggregator.
func (s *State) Fn() Func { return s.fn }

// Add folds one observed value into the state with unit weight.
func (s *State) Add(v tuple.Value) { s.AddWeighted(v, 1) }

// AddWeighted folds one observed value carrying the given weight
// (1/sampling-rate for sampled observations). A weight other than 1
// marks the state inexact: COUNT and SUM become weighted estimates,
// MIN/MAX/AVERAGE keep their natural fold but are labeled approximate.
func (s *State) AddWeighted(v tuple.Value, w float64) {
	s.count++
	if w != 1 {
		s.inexact = true
	}
	s.wcount += w
	switch s.fn {
	case Count:
		// nothing but the counts
	case Sum, Average:
		if v.Kind() == tuple.KindFloat {
			s.anyFloat = true
		}
		s.sumI += v.Int()
		s.sumF += v.Float()
		s.wsum += w * v.Float()
	case Min:
		if !s.seen || v.Compare(s.minmax) < 0 {
			s.minmax = v
		}
	case Max:
		if !s.seen || v.Compare(s.minmax) > 0 {
			s.minmax = v
		}
	}
	s.seen = true
}

// Merge folds another partial state (same aggregator) into s.
func (s *State) Merge(o *State) {
	if s.fn != o.fn {
		panic(fmt.Sprintf("agg: merging %v into %v", o.fn, s.fn))
	}
	if !o.seen {
		return
	}
	s.count += o.count
	s.inexact = s.inexact || o.inexact
	s.wcount += o.wcount
	s.wsum += o.wsum
	switch s.fn {
	case Count:
	case Sum, Average:
		s.anyFloat = s.anyFloat || o.anyFloat
		s.sumI += o.sumI
		s.sumF += o.sumF
	case Min:
		if !s.seen || o.minmax.Compare(s.minmax) < 0 {
			s.minmax = o.minmax
		}
	case Max:
		if !s.seen || o.minmax.Compare(s.minmax) > 0 {
			s.minmax = o.minmax
		}
	}
	s.seen = true
}

// Result returns the aggregate value for the state. Inexact states
// report the weighted (inverse-rate-scaled) estimate for COUNT and SUM
// and the weighted mean for AVERAGE; MIN/MAX report the observed
// extremum (a lower bound on coverage — see Exact).
func (s *State) Result() tuple.Value {
	switch s.fn {
	case Count:
		if s.inexact {
			return tuple.Float(s.wcount)
		}
		return tuple.Int(s.count)
	case Sum:
		if s.inexact {
			return tuple.Float(s.wsum)
		}
		if s.anyFloat {
			return tuple.Float(s.sumF)
		}
		return tuple.Int(s.sumI)
	case Average:
		if s.count == 0 {
			return tuple.Null
		}
		if s.inexact {
			if s.wcount == 0 {
				return tuple.Null
			}
			return tuple.Float(s.wsum / s.wcount)
		}
		return tuple.Float(s.sumF / float64(s.count))
	case Min, Max:
		if !s.seen {
			return tuple.Null
		}
		return s.minmax
	default:
		return tuple.Null
	}
}

// Exact reports whether the state saw only unit-weight contributions:
// false means some input was sampled and Result is an estimate (for
// MIN/MAX: an extremum over the sampled subset only).
func (s *State) Exact() bool { return !s.inexact }

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := *s
	return &c
}

// Append serializes the state to buf (for baggage and bus transport).
// The weighted fields are appended only for inexact states (flag bit
// 4), so exact states — including every state produced at sampling
// rate 1.0 — encode byte-identically to the pre-sampling format.
func (s *State) Append(buf []byte) []byte {
	buf = append(buf, byte(s.fn))
	var flags byte
	if s.anyFloat {
		flags |= 1
	}
	if s.seen {
		flags |= 2
	}
	if s.inexact {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, s.count)
	buf = binary.AppendVarint(buf, s.sumI)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], floatBits(s.sumF))
	buf = append(buf, tmp[:]...)
	buf = tuple.AppendValue(buf, s.minmax)
	if s.inexact {
		binary.LittleEndian.PutUint64(tmp[:], floatBits(s.wcount))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], floatBits(s.wsum))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// EncodedSize returns the number of bytes Append would write, computed
// arithmetically so budget cost models never allocate a scratch encoding.
func (s *State) EncodedSize() int {
	n := 2 + // fn + flags
		tuple.VarintLen(s.count) + tuple.VarintLen(s.sumI) +
		8 + // sumF fixed64
		tuple.EncodedSize(s.minmax)
	if s.inexact {
		n += 16 // wcount + wsum fixed64s
	}
	return n
}

// MinEncodedSize is the fewest bytes Append writes for a state.
const MinEncodedSize = 13

// Read decodes one state from r into s, in place: it writes every field,
// so s may hold an earlier state (a decoder's reused slab) and keeps
// nothing of it. What s holds after r has failed is meaningless.
func (s *State) Read(r *tuple.Reader) {
	fn, flags := Func(r.Byte()), r.Byte()
	if flags&^7 != 0 {
		r.Fail(tuple.ErrNonCanonical)
	}
	s.fn, s.anyFloat, s.seen, s.inexact = fn, flags&1 != 0, flags&2 != 0, flags&4 != 0
	s.count = r.Varint()
	s.sumI = r.Varint()
	s.sumF = floatFromBits(r.Fixed64())
	s.minmax = r.Value()
	if s.inexact {
		s.wcount = floatFromBits(r.Fixed64())
		s.wsum = floatFromBits(r.Fixed64())
	} else {
		// Exact states never ship the weighted fields; rebuild the
		// exact-state invariant so later weighted merges stay correct.
		s.wcount = float64(s.count)
		s.wsum = s.sumF
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
