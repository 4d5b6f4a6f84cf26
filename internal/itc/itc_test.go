package itc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeed(t *testing.T) {
	s := Seed()
	if !s.id.isOne() {
		t.Errorf("seed id = %v, want 1", s.id)
	}
	if !s.ev.Leaf || s.ev.N != 0 {
		t.Errorf("seed event = %v, want 0", s.ev)
	}
}

func TestForkProducesDisjointIDs(t *testing.T) {
	a, b := Seed().Fork()
	if overlap(a.id, b.id) {
		t.Fatalf("forked IDs overlap: %v and %v", a.id, b.id)
	}
}

// overlap reports whether two IDs claim any common interval.
func overlap(a, b *ID) bool {
	switch {
	case a.isZero() || b.isZero():
		return false
	case a.isOne() || b.isOne():
		return true
	default:
		return overlap(a.L, b.L) || overlap(a.R, b.R)
	}
}

func TestJoinOfForkRestoresID(t *testing.T) {
	s := Seed()
	a, b := s.Fork()
	j := Join(a, b)
	if !j.id.Equal(s.id) {
		t.Fatalf("join(fork(s)).id = %v, want %v", j.id, s.id)
	}
}

func TestEventAdvancesCausality(t *testing.T) {
	s := Seed()
	s2 := s.Event()
	if !s.Leq(s2) {
		t.Error("s should be <= s.Event()")
	}
	if s2.Leq(s) {
		t.Error("s.Event() should not be <= s")
	}
}

func TestConcurrentEventsAreIncomparable(t *testing.T) {
	a, b := Seed().Fork()
	a2 := a.Event()
	b2 := b.Event()
	if a2.Leq(b2) || b2.Leq(a2) {
		t.Errorf("concurrent events compare: a=%v b=%v", a2, b2)
	}
}

func TestJoinDominatesBothInputs(t *testing.T) {
	a, b := Seed().Fork()
	a = a.Event().Event()
	b = b.Event()
	j := Join(a, b)
	if !a.Leq(j) || !b.Leq(j) {
		t.Errorf("join %v does not dominate inputs %v, %v", j, a, b)
	}
}

func TestEventAfterJoinSeesAllHistory(t *testing.T) {
	a, b := Seed().Fork()
	a = a.Event()
	b = b.Event()
	j := Join(a, b).Event()
	if !a.Leq(j) || !b.Leq(j) {
		t.Error("post-join event must dominate both branch histories")
	}
}

func TestPeekIsAnonymous(t *testing.T) {
	s := Seed().Event()
	p := s.Peek()
	if !p.id.isZero() {
		t.Errorf("peek id = %v, want 0", p.id)
	}
	if !s.Leq(p) || !p.Leq(s) {
		t.Error("peek should carry the same history")
	}
}

func TestDeepForkTree(t *testing.T) {
	// Fork 64 ways; all pairwise disjoint; join-all restores seed ID.
	stamps := []Stamp{Seed()}
	for len(stamps) < 64 {
		s := stamps[0]
		stamps = stamps[1:]
		a, b := s.Fork()
		stamps = append(stamps, a, b)
	}
	for i := 0; i < len(stamps); i++ {
		for j := i + 1; j < len(stamps); j++ {
			if overlap(stamps[i].id, stamps[j].id) {
				t.Fatalf("stamps %d and %d overlap", i, j)
			}
		}
	}
	j := stamps[0]
	for _, s := range stamps[1:] {
		j = Join(j, s)
	}
	if !j.id.isOne() {
		t.Fatalf("join of all forks = %v, want 1", j.id)
	}
}

func TestEventOnAnonymousStampPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Seed().Peek().Event()
}

func TestStampStringRendering(t *testing.T) {
	s := Seed()
	if got := s.String(); got != "(1, 0)" {
		t.Errorf("String() = %q, want %q", got, "(1, 0)")
	}
	a, _ := s.Fork()
	if got := a.String(); got != "((1,0), 0)" {
		t.Errorf("String() = %q, want %q", got, "((1,0), 0)")
	}
}

// randomWalk produces a stamp by a random sequence of forks/events/joins.
func randomWalk(seed int64, steps int) []Stamp {
	rng := rand.New(rand.NewSource(seed))
	stamps := []Stamp{Seed()}
	for i := 0; i < steps; i++ {
		k := rng.Intn(len(stamps))
		switch rng.Intn(3) {
		case 0: // fork
			a, b := stamps[k].Fork()
			stamps[k] = a
			stamps = append(stamps, b)
		case 1: // event
			stamps[k] = stamps[k].Event()
		case 2: // join
			if len(stamps) > 1 {
				j := rng.Intn(len(stamps))
				if j != k {
					stamps[k] = Join(stamps[k], stamps[j])
					stamps = append(stamps[:j], stamps[j+1:]...)
				}
			}
		}
	}
	return stamps
}

func TestQuickForkEventJoinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		stamps := randomWalk(seed, 40)
		// Invariant 1: all live stamps have pairwise disjoint IDs.
		for i := 0; i < len(stamps); i++ {
			for j := i + 1; j < len(stamps); j++ {
				if overlap(stamps[i].id, stamps[j].id) {
					return false
				}
			}
		}
		// Invariant 2: joining everything restores the full ID space.
		j := stamps[0]
		for _, s := range stamps[1:] {
			j = Join(j, s)
		}
		return j.id.isOne()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEventMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		stamps := randomWalk(seed, 30)
		for _, s := range stamps {
			s2 := s.Event()
			if !s.Leq(s2) || s2.Leq(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		for _, s := range randomWalk(seed, 30) {
			buf := AppendStamp(nil, s)
			got, rest, err := DecodeStamp(buf)
			if err != nil || len(rest) != 0 || !got.Equal(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeID(nil); err == nil {
		t.Error("DecodeID(nil) should fail")
	}
	if _, _, err := DecodeID([]byte{9}); err == nil {
		t.Error("DecodeID(bad tag) should fail")
	}
	if _, _, err := DecodeEvent([]byte{1, 5}); err == nil {
		t.Error("DecodeEvent(truncated) should fail")
	}
	if _, _, err := DecodeStamp([]byte{tagIDOne}); err == nil {
		t.Error("DecodeStamp(missing event) should fail")
	}
}

func TestKeyIDDistinguishesForks(t *testing.T) {
	a, b := Seed().Fork()
	if KeyID(a.ID()) == KeyID(b.ID()) {
		t.Error("fork halves should have distinct keys")
	}
}

func TestEncodingIsCompact(t *testing.T) {
	s := Seed()
	for i := 0; i < 10; i++ {
		s = s.Event()
	}
	if n := len(AppendStamp(nil, s)); n > 8 {
		t.Errorf("normalized 10-event stamp encodes to %d bytes, want <= 8", n)
	}
}
