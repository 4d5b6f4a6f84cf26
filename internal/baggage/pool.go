package baggage

import "sync"

// scratch is a pooled byte buffer for transient encodings on the pack and
// serialize hot paths: group-key building in Set.Pack / PackBudgeted, the
// spec a PackFrom encodes or compares, and the staging buffer in
// Serialize / ByteSize. Pooling the buffer (and
// returning the same *scratch object to the pool, never a fresh header)
// makes steady-state packing allocation-free.
type scratch struct{ buf []byte }

// maxScratchCap bounds what the pool retains: a pathological one-off
// serialization must not pin a huge buffer for the process lifetime.
const maxScratchCap = 1 << 16

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns a scratch buffer; its buf may be nil (first use on
// this P) or hold stale bytes — callers always write via s.buf[:0].
func getScratch() *scratch {
	return scratchPool.Get().(*scratch)
}

// putScratch returns the scratch to the pool, dropping oversized buffers.
func putScratch(s *scratch) {
	if cap(s.buf) > maxScratchCap {
		s.buf = nil
	}
	scratchPool.Put(s)
}
