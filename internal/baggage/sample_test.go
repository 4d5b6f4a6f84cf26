package baggage

import (
	"testing"

	"repro/internal/tuple"
)

func TestSampleDecisionSurvivesSplitJoinTransfer(t *testing.T) {
	b := New()
	b.PackSampleDecision("q1", 0.25)
	b.PackSampleDecision("q2", 0) // suppressed

	l, r := b.Split()
	// A serialized process transfer on one branch.
	l = Deserialize(l.Serialize())
	j := Join(l, r)

	if rate, ok := j.SampleRate("q1"); !ok || rate != 0.25 {
		t.Fatalf("q1 decision after split/transfer/join = (%v, %v), want (0.25, true)", rate, ok)
	}
	if rate, ok := j.SampleRate("q2"); !ok || rate != 0 {
		t.Fatalf("q2 decision = (%v, %v), want (0, true)", rate, ok)
	}
	if _, ok := j.SampleRate("q3"); ok {
		t.Fatal("undeclared query has a decision")
	}
	var nilBag *Baggage
	if _, ok := nilBag.SampleRate("q1"); ok {
		t.Fatal("nil baggage has a decision")
	}
}

func TestSampleSlotExcludedFromBudget(t *testing.T) {
	b := New()
	b.PackSampleDecision("q", 0.5)
	spec := SetSpec{Kind: All, Fields: tuple.Schema{"v"}}
	// A budget of one tuple: the query's own data must be what gets
	// evicted/capped, never the sample decision.
	st := b.PackBudgeted("q", "q.a", spec, Budget{MaxTuples: 1},
		tuple.Tuple{tuple.Int(1)}, tuple.Tuple{tuple.Int(2)})
	if st.Packed != 2 {
		t.Fatalf("packed %d, want 2", st.Packed)
	}
	if rate, ok := b.SampleRate("q"); !ok || rate != 0.5 {
		t.Fatalf("decision lost under budget pressure: (%v, %v)", rate, ok)
	}
	for _, d := range b.DropRecords("") {
		if d.Slot == SampleSlot {
			t.Fatalf("sample slot was evicted: %+v", d)
		}
	}
}
