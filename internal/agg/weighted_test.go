package agg

import (
	"bytes"
	"testing"

	"repro/internal/tuple"
)

func TestWeightedCountSum(t *testing.T) {
	c := New(Count)
	c.AddWeighted(tuple.Null, 20) // one sampled observation at rate 0.05
	c.AddWeighted(tuple.Null, 20)
	if c.Exact() {
		t.Fatal("weighted COUNT state claims exact")
	}
	if got := c.Result(); got.Float() != 40 {
		t.Fatalf("weighted COUNT = %v, want 40", got)
	}
	if c.count != 2 {
		t.Fatalf("raw count = %d, want 2", c.count)
	}

	s := New(Sum)
	s.AddWeighted(tuple.Int(3), 10)
	s.AddWeighted(tuple.Int(5), 10)
	if got := s.Result(); got.Float() != 80 {
		t.Fatalf("weighted SUM = %v, want 80", got)
	}

	a := New(Average)
	a.AddWeighted(tuple.Int(2), 10)
	a.AddWeighted(tuple.Int(6), 10)
	if got := a.Result(); got.Float() != 4 {
		t.Fatalf("weighted AVERAGE = %v, want 4", got)
	}

	m := New(Max)
	m.AddWeighted(tuple.Int(7), 10)
	if m.Exact() {
		t.Fatal("sampled MAX state claims exact")
	}
	if got := m.Result(); got.Int() != 7 {
		t.Fatalf("sampled MAX = %v, want 7 (value unscaled)", got)
	}

	if s.wcount != 20 || s.wsum != 80 {
		t.Fatalf("weighted count, sum = (%v, %v), want (20, 80)", s.wcount, s.wsum)
	}
	// For an exact state the weighted fields mirror the raw fold.
	e := New(Sum)
	e.Add(tuple.Int(3))
	e.Add(tuple.Int(4))
	if e.wcount != 2 || e.wsum != 7 {
		t.Fatalf("exact weighted count, sum = (%v, %v), want (2, 7)", e.wcount, e.wsum)
	}
}

func TestUnitWeightStaysExact(t *testing.T) {
	s := New(Sum)
	s.AddWeighted(tuple.Int(3), 1)
	s.Add(tuple.Int(4))
	if !s.Exact() {
		t.Fatal("unit-weight state marked inexact")
	}
	if got := s.Result(); got.Int() != 7 {
		t.Fatalf("exact SUM = %v, want int 7", got)
	}
}

// TestExactEncodingUnchanged pins the rate=1.0 degenerate case: a state
// that never saw a non-unit weight must encode byte-identically to one
// built through the plain Add path.
func TestExactEncodingUnchanged(t *testing.T) {
	a, b := New(Sum), New(Sum)
	a.Add(tuple.Int(5))
	a.Add(tuple.Float(2.5))
	b.AddWeighted(tuple.Int(5), 1)
	b.AddWeighted(tuple.Float(2.5), 1)
	ea, eb := a.Append(nil), b.Append(nil)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("exact encodings differ: %x vs %x", ea, eb)
	}
	if len(ea) != a.EncodedSize() {
		t.Fatalf("EncodedSize %d != appended %d", a.EncodedSize(), len(ea))
	}
}

// TestInexactSurvivesMergeAndWire checks the Exact flag and the
// weighted sums through encode/decode round trips and pairwise merges
// in both directions — the combiner-tree path.
func TestInexactSurvivesMergeAndWire(t *testing.T) {
	exact := New(Sum)
	exact.Add(tuple.Int(10))
	sampled := New(Sum)
	sampled.AddWeighted(tuple.Int(3), 4)

	// Round-trip both through the wire first (agents encode partials).
	roundtrip := func(s *State) *State {
		buf := s.Append(nil)
		if len(buf) != s.EncodedSize() {
			t.Fatalf("EncodedSize %d != appended %d", s.EncodedSize(), len(buf))
		}
		d, rest, err := decode(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: err=%v rest=%d", err, len(rest))
		}
		return d
	}
	e2, s2 := roundtrip(exact), roundtrip(sampled)
	if !e2.Exact() || s2.Exact() {
		t.Fatalf("flags lost in round trip: exact=%v sampled=%v", e2.Exact(), s2.Exact())
	}

	mergeAB := e2.Clone()
	mergeAB.Merge(s2)
	mergeBA := s2.Clone()
	mergeBA.Merge(e2)
	for _, m := range []*State{mergeAB, mergeBA} {
		if m.Exact() {
			t.Fatal("merge of exact+sampled claims exact")
		}
		// Weighted sum: 10·1 + 3·4 = 22, both merge orders.
		if got := m.Result(); got.Float() != 22 {
			t.Fatalf("merged weighted SUM = %v, want 22", got)
		}
	}
	// The inexact flag survives a further wire hop (tier-2 combiner).
	if roundtrip(mergeAB).Exact() {
		t.Fatal("inexact flag lost re-encoding a merged state")
	}
}

func TestDecodeTruncatedWeighted(t *testing.T) {
	s := New(Count)
	s.AddWeighted(tuple.Null, 2)
	buf := s.Append(nil)
	for i := range buf {
		if _, _, err := decode(buf[:i]); err == nil {
			t.Fatalf("truncated decode at %d bytes succeeded", i)
		}
	}
}
