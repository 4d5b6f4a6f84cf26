package baggage

import (
	"bytes"
	"encoding/binary"
	"testing"

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

// encodeAll re-encodes decoded instances the way Serialize does once the
// lazy raw bytes are invalidated.
func encodeAll(insts []*instance) []byte {
	if len(insts) == 0 {
		return nil
	}
	out := binary.AppendUvarint(nil, uint64(len(insts)))
	for _, in := range insts {
		out = encodeInstance(out, in)
	}
	return out
}

// FuzzDecodeBaggage: decoding arbitrary bytes must never panic, and any
// successfully decoded baggage must re-encode to a stable canonical form
// (encode ∘ decode is a fixpoint). Decoded content must also survive the
// exported surface — Unpack, budget accounting, split/join — without
// panicking, since baggage bytes arrive from untrusted peer processes.
func FuzzDecodeBaggage(f *testing.F) {
	for _, s := range baggageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, err := decodeInstances(data)
		if err != nil {
			return
		}
		enc := encodeAll(insts)
		insts2, err := decodeInstances(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded baggage: %v", err)
		}
		if enc2 := encodeAll(insts2); !bytes.Equal(enc, enc2) {
			t.Fatalf("baggage encoding is not a fixpoint:\n%x\n%x", enc, enc2)
		}

		// Decoded strings borrow the baggage's own copy of the bytes:
		// overwriting the slice it was given, after the decode, changes
		// nothing it re-encodes.
		own := bytes.Clone(data)
		bag := Deserialize(own)
		bag.TupleCount()
		for i := range own {
			own[i] = 0xFF
		}
		if got := bag.Serialize(); !bytes.Equal(got, enc) {
			t.Fatalf("decoded baggage changed with the bytes it was given:\n%x\nwant\n%x", got, enc)
		}

		// The exported read paths must tolerate whatever decoded.
		for _, slot := range bag.Slots() {
			bag.Unpack(slot)
		}
		bag.TupleCount()
		bag.HasDrops()
		bag.DropRecords("")
		a, b := bag.Split()
		Join(a, b).Serialize()
	})
}

func TestRegenBaggageFuzzCorpus(t *testing.T) {
	randtest.RegenCorpus(t, "FuzzDecodeBaggage", baggageSeeds(t))
}
