package agg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestFromName(t *testing.T) {
	for name, fn := range map[string]Func{
		"COUNT": Count, "SUM": Sum, "MIN": Min, "MAX": Max,
		"AVERAGE": Average, "AVG": Average,
	} {
		got, ok := FromName(name)
		if !ok || got != fn {
			t.Errorf("FromName(%q) = (%v, %v)", name, got, ok)
		}
	}
	if _, ok := FromName("MEDIAN"); ok {
		t.Error("MEDIAN should not parse")
	}
}

func TestCount(t *testing.T) {
	s := New(Count)
	for i := 0; i < 5; i++ {
		s.Add(tuple.Int(int64(i)))
	}
	if !s.Result().Equal(tuple.Int(5)) {
		t.Errorf("COUNT = %v, want 5", s.Result())
	}
}

func TestSumIntsStaysInt(t *testing.T) {
	s := New(Sum)
	s.Add(tuple.Int(3))
	s.Add(tuple.Int(4))
	r := s.Result()
	if r.Kind() != tuple.KindInt || r.Int() != 7 {
		t.Errorf("SUM = %v (%v), want int 7", r, r.Kind())
	}
}

func TestSumWithFloatPromotes(t *testing.T) {
	s := New(Sum)
	s.Add(tuple.Int(3))
	s.Add(tuple.Float(0.5))
	r := s.Result()
	if r.Kind() != tuple.KindFloat || r.Float() != 3.5 {
		t.Errorf("SUM = %v (%v), want float 3.5", r, r.Kind())
	}
}

func TestMinMax(t *testing.T) {
	mn, mx := New(Min), New(Max)
	for _, v := range []int64{5, 2, 9, 2} {
		mn.Add(tuple.Int(v))
		mx.Add(tuple.Int(v))
	}
	if mn.Result().Int() != 2 || mx.Result().Int() != 9 {
		t.Errorf("MIN/MAX = %v/%v", mn.Result(), mx.Result())
	}
}

func TestAverage(t *testing.T) {
	s := New(Average)
	s.Add(tuple.Int(1))
	s.Add(tuple.Int(2))
	s.Add(tuple.Int(6))
	if s.Result().Float() != 3.0 {
		t.Errorf("AVG = %v, want 3", s.Result())
	}
}

func TestEmptyStates(t *testing.T) {
	if !New(Count).Result().Equal(tuple.Int(0)) {
		t.Error("empty COUNT should be 0")
	}
	if !New(Sum).Result().Equal(tuple.Int(0)) {
		t.Error("empty SUM should be 0")
	}
	if New(Average).Result().Kind() != tuple.KindNull {
		t.Error("empty AVG should be null")
	}
	if New(Min).Result().Kind() != tuple.KindNull || New(Max).Result().Kind() != tuple.KindNull {
		t.Error("empty MIN/MAX should be null")
	}
}

func TestMergeEmptyIsIdentity(t *testing.T) {
	for _, fn := range []Func{Count, Sum, Min, Max, Average} {
		s := New(fn)
		s.Add(tuple.Int(5))
		before := s.Result()
		s.Merge(New(fn))
		if !s.Result().Equal(before) {
			t.Errorf("%v: merge with empty changed %v to %v", fn, before, s.Result())
		}
	}
}

func TestMergeMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Sum).Merge(New(Count))
}

func TestCombiner(t *testing.T) {
	if Count.Combiner() != Sum {
		t.Error("COUNT combiner should be SUM")
	}
	for _, fn := range []Func{Sum, Min, Max, Average} {
		if fn.Combiner() != fn {
			t.Errorf("%v combiner should be itself", fn)
		}
	}
}

// TestQuickMergeEqualsSequential: splitting a value stream into chunks,
// aggregating each, and merging must equal aggregating the whole stream.
func TestQuickMergeEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]tuple.Value, n)
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = tuple.Int(int64(rng.Intn(1000) - 500))
			} else {
				vals[i] = tuple.Float(float64(rng.Intn(1000)) / 4)
			}
		}
		for _, fn := range []Func{Count, Sum, Min, Max, Average} {
			whole := New(fn)
			for _, v := range vals {
				whole.Add(v)
			}
			merged := New(fn)
			i := 0
			for i < n {
				chunk := New(fn)
				end := i + 1 + rng.Intn(n-i)
				for ; i < end; i++ {
					chunk.Add(vals[i])
				}
				merged.Merge(chunk)
			}
			a, b := whole.Result(), merged.Result()
			if a.Kind() == tuple.KindFloat {
				if diff := a.Float() - b.Float(); diff > 1e-9 || diff < -1e-9 {
					return false
				}
			} else if !a.Equal(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCodecRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := []Func{Count, Sum, Min, Max, Average}[rng.Intn(5)]
		s := New(fn)
		for i := rng.Intn(10); i > 0; i-- {
			s.Add(tuple.Int(int64(rng.Intn(100))))
		}
		buf := s.Append(nil)
		got, rest, err := decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return got.Result().Equal(s.Result()) && got.count == s.count && got.Fn() == s.Fn()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	s := New(Sum)
	s.Add(tuple.Int(5))
	buf := s.Append(nil)
	for i := 0; i < len(buf); i++ {
		if _, _, err := decode(buf[:i]); err == nil {
			t.Fatalf("Read of %d-byte prefix should fail", i)
		}
	}
}

// TestReadOverwritesEveryField: Read decodes in place, so a state read
// over one that held something else — a weighted MAX of a string read
// over by an exact SUM, and the reverse — must equal the state read into
// zeroed memory.
func TestReadOverwritesEveryField(t *testing.T) {
	weighted, exact := New(Max), New(Sum)
	weighted.AddWeighted(tuple.String("z"), 4)
	exact.Add(tuple.Int(3))
	for _, pair := range [][2]*State{{weighted, exact}, {exact, weighted}} {
		before, want := pair[0].Append(nil), pair[1].Append(nil)
		var s State
		r := tuple.NewReader(before)
		s.Read(&r)
		r = tuple.NewReader(want)
		s.Read(&r)
		if fresh, _, err := decode(want); err != nil || s != *fresh {
			t.Errorf("read over %+v: got %+v, want %+v (%v)", *pair[0], s, *fresh, err)
		}
	}
}

// decode reads one state from the front of buf into a fresh State, as
// every production decoder does: through State.Read on a tuple.Reader.
func decode(buf []byte) (*State, []byte, error) {
	r := tuple.NewReader(buf)
	s := new(State)
	if s.Read(&r); r.Err() != nil {
		return nil, nil, r.Err()
	}
	return s, r.Rest(), nil
}
