package baggage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/randtest"
	"repro/internal/tuple"
)

// baggageSeeds serializes baggage exercising every set kind, frozen
// instances from split/join, and budget-eviction tombstones, plus
// malformed shapes the decoder must reject without panicking or
// preallocating for absurd claimed counts.
func baggageSeeds(t testing.TB) map[string][]byte {
	kv := func(k string, v int64) tuple.Tuple {
		return tuple.Tuple{tuple.String(k), tuple.Int(v)}
	}
	allKinds := New()
	for _, k := range []struct {
		slot string
		spec SetSpec
	}{
		{"q.all", SetSpec{Kind: All, Fields: tuple.Schema{"k", "v"}}},
		{"q.first", SetSpec{Kind: First, Fields: tuple.Schema{"k", "v"}}},
		{"q.firstn", SetSpec{Kind: FirstN, N: 2, Fields: tuple.Schema{"k", "v"}}},
		{"q.recent", SetSpec{Kind: Recent, Fields: tuple.Schema{"k", "v"}}},
		{"q.recentn", SetSpec{Kind: RecentN, N: 2, Fields: tuple.Schema{"k", "v"}}},
		{"q.frontier", SetSpec{Kind: Frontier, Fields: tuple.Schema{"k", "v"}}},
		{"q.union", SetSpec{Kind: Union, Fields: tuple.Schema{"k", "v"}}},
		{"q.agg", aggSpec()},
	} {
		allKinds.Pack(k.slot, k.spec, kv("a", 1), kv("b", 2), kv("a", 3))
	}

	split := New()
	split.Pack("q.agg", aggSpec(), kv("pre", 1))
	left, right := split.Split()
	left.Pack("q.agg", aggSpec(), kv("l", 1))
	right.Pack("q.agg", aggSpec(), kv("r", 1))
	joined := Join(left, right)

	evicted := New()
	for i := 0; i < 8; i++ {
		evicted.PackBudgeted("q", "q.a", aggSpec(), Budget{MaxTuples: 2}, kv(string(rune('a'+i)), int64(i)))
	}

	return map[string][]byte{
		"all-kinds": allKinds.Serialize(),
		"joined":    joined.Serialize(),
		"tombstone": evicted.Serialize(),
		"empty":     {},
		"bad-tag":   {0x7f},
		// One instance (nonce 1) claiming 2^28-1 slots in a one-byte body.
		"huge-count": {0x01, 0x01, 0xff, 0xff, 0xff, 0x7f, 0x00},
		"truncated":  allKinds.Serialize()[:9],
	}
}

// FuzzDecodeBaggage: decoding arbitrary bytes must never panic, and
// whatever decodes must survive the exported surface, since baggage bytes
// arrive from untrusted peer processes. The decoder accepts only the
// canonical encoding, so accepted baggage reads the same two ways: through
// its index, never materialized, and with every slot materialized into its
// set, as a write materializes one. Both re-encode to the bytes they came
// from, and both give the same tuples, sample rates, drop records and
// counts, and the same bytes across a split and a join.
func FuzzDecodeBaggage(f *testing.F) {
	for _, s := range baggageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeInstances(data); err != nil {
			return
		}
		// Decoded views borrow the baggage's own copy of the bytes:
		// overwriting the slice it was given, after the decode, changes
		// nothing it reads or re-encodes.
		own := bytes.Clone(data)
		indexed, forced := Deserialize(own), Deserialize(data)
		indexed.TupleCount()
		for i := range own {
			own[i] = 0xFF
		}
		forced.ensureDecoded()
		for _, in := range forced.insts {
			for i := range in.slots {
				in.slots[i].materialize()
			}
		}
		var views [2]string
		for i, b := range []*Baggage{indexed, forced} {
			if got := b.Serialize(); !bytes.Equal(got, data) {
				t.Fatalf("way %d re-encodes accepted baggage to\n%x\nwant\n%x", i, got, data)
			}
			views[i] = view(b)
		}
		if views[0] != views[1] {
			t.Fatalf("indexed baggage reads\n%s\nmaterialized baggage reads\n%s", views[0], views[1])
		}
		for i, b := range []*Baggage{indexed, forced} {
			packInto(b)
			if _, err := decodeInstances(b.Serialize()); err != nil {
				t.Fatalf("way %d: packing into accepted baggage made bytes that do not decode: %v", i, err)
			}
		}
	})
}

// fuzzSpec and fuzzAggSpec are the fuzzer's own specs: a received slot of
// the same name under any other spec is a peer's, which a pack replaces.
var (
	fuzzSpec    = SetSpec{Kind: All, Fields: tuple.Schema{"fuzz"}}
	fuzzAggSpec = SetSpec{Kind: Agg, Fields: tuple.Schema{"fuzz", "n"}, GroupBy: []int{0}, Aggs: []AggField{{Pos: 1, Fn: agg.Count}}}
)

// packInto writes received baggage as a tracer does: into every slot name
// it arrived with, through PackFrom (an encoded slot's path) and
// PackBudgeted (a materialized set's), then the span frontier's pack, then
// a pack over budget whose eviction writes a tombstone.
func packInto(b *Baggage) {
	var names []string
	for _, in := range b.insts {
		for _, sl := range in.slots {
			names = append(names, sl.name)
		}
	}
	w := tuple.Tuple{tuple.String("w"), tuple.Int(1)}
	for _, name := range names {
		query, _, _ := strings.Cut(name, ".")
		b.PackFrom(query, name, fuzzSpec, Budget{}, w, []int{0})
		b.PackBudgeted(query, name, fuzzAggSpec, Budget{}, w)
	}
	b.PackBudgeted("", TraceSlot, TraceSpec, Budget{}, tuple.Tuple{tuple.Int(1), tuple.Int(2), tuple.Int(3)})
	b.PackBudgeted("fuzz", "fuzz.evict", fuzzSpec, Budget{MaxTuples: 1}, w[:1], w[1:])
}

// view renders what b's read paths return, and its bytes after a split
// and a join (the join's new instance's nonce zeroed).
func view(b *Baggage) string {
	var sb strings.Builder
	b.ensureDecoded()
	seen := map[string]bool{}
	for _, in := range b.insts {
		for _, sl := range in.slots {
			if seen[sl.name] {
				continue
			}
			seen[sl.name] = true
			query, _, _ := strings.Cut(sl.name, ".")
			rate, sampled := b.SampleRate(query)
			fmt.Fprintln(&sb, sl.name, b.Unpack(sl.name), rate, sampled, b.DropRecords(query))
		}
	}
	fmt.Fprintln(&sb, b.TupleCount(), b.DropRecords(""))
	j := Join(b.Split())
	if len(j.insts) > 0 {
		j.insts[0].nonce = 0
	}
	fmt.Fprintf(&sb, "%x\n", j.Serialize())
	return sb.String()
}

func TestRegenBaggageFuzzCorpus(t *testing.T) {
	randtest.RegenCorpus(t, "FuzzDecodeBaggage", baggageSeeds(t))
}
