package itc

import (
	"bytes"
	"testing"

	"repro/internal/randtest"
)

// nested returns depth interior ID tags and no leaves: the start of an ID
// tree depth levels deep.
func nested(depth int) []byte {
	return bytes.Repeat([]byte{tagIDNode}, depth)
}

// stampSeeds encodes the seed stamp and a few fork/join/event shapes, plus
// malformed ones.
func stampSeeds() map[string][]byte {
	a, b := Seed().Fork()
	a1, a2 := a.Event().Fork()
	return map[string][]byte{
		"seed":        AppendStamp(nil, Seed()),
		"fork-left":   AppendStamp(nil, a),
		"fork-event":  AppendStamp(nil, b.Event().Event()),
		"fork-fork":   AppendStamp(nil, a2.Event()),
		"join":        AppendStamp(nil, Join(a1.Event(), b.Event())),
		"bad-id-tag":  {9},
		"bad-ev-tag":  {tagIDOne, 7, 0},
		"missing-ev":  {tagIDOne},
		"trunc-event": {tagIDOne, 1, 5},
	}
}

// FuzzDecodeStamp: stamps arrive in-band from peer processes, so decoding
// arbitrary bytes must never panic — nor overflow the stack — and any
// decoded stamp must re-encode to a stable canonical form.
func FuzzDecodeStamp(f *testing.F) {
	for _, s := range stampSeeds() {
		f.Add(s)
	}
	// Over-deep tree: built here rather than checked in, it is 64 KiB of
	// one byte.
	f.Add(nested(maxDepth + 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := DecodeStamp(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decode returned more bytes than it was given")
		}
		enc := AppendStamp(nil, s)
		s2, tail, err := DecodeStamp(enc)
		if err != nil || len(tail) != 0 {
			t.Fatalf("re-decode of re-encoded stamp %v: err=%v trailing=%d", s, err, len(tail))
		}
		if enc2 := AppendStamp(nil, s2); !bytes.Equal(enc, enc2) {
			t.Fatalf("stamp encoding is not a fixpoint:\n%x\n%x", enc, enc2)
		}
	})
}

// TestDecodeDepthCap: nesting beyond maxDepth fails the decode with an
// ordinary error. Without the cap these inputs — 16 MiB each, far below
// what a frame may carry — end the process with a stack overflow.
func TestDecodeDepthCap(t *testing.T) {
	const levels = 16 << 20
	if _, _, err := DecodeID(nested(levels)); err != errTooDeep {
		t.Errorf("DecodeID of %d nested interior tags: err = %v, want %v", levels, err, errTooDeep)
	}
	deepEvent := bytes.Repeat([]byte{1, 0}, levels/2) // interior tag, base 0
	if _, _, err := DecodeEvent(deepEvent); err != errTooDeep {
		t.Errorf("DecodeEvent of %d nested interior tags: err = %v, want %v", levels/2, err, errTooDeep)
	}
	// A tree exactly at the cap still decodes.
	atCap := append(nested(maxDepth), bytes.Repeat([]byte{tagIDOne}, maxDepth+1)...)
	if _, rest, err := DecodeID(atCap); err != nil || len(rest) != 0 {
		t.Errorf("DecodeID of a %d-level tree: err = %v, %d bytes left", maxDepth, err, len(rest))
	}
}

func TestRegenStampFuzzCorpus(t *testing.T) {
	randtest.RegenCorpus(t, "FuzzDecodeStamp", stampSeeds())
}
