package slab

import "testing"

// TestTakeHandsOutDisjointZeroedSlices: every slice a slab hands out is
// zeroed, exactly as long as asked, closed to append, and shares no
// element with any other — whatever mix of sizes and Expects produced the
// chunks underneath.
func TestTakeHandsOutDisjointZeroedSlices(t *testing.T) {
	var s Slab[int]
	var taken [][]int
	for i := 0; i < 500; i++ {
		if i%97 == 0 {
			s.Expect(i % 13)
		}
		n := i % 7
		got := s.Take(n)
		if len(got) != n || cap(got) != n {
			t.Fatalf("Take(%d) returned len %d cap %d", n, len(got), cap(got))
		}
		for j := range got {
			if got[j] != 0 {
				t.Fatalf("Take(%d) #%d handed out a used element", n, i)
			}
			got[j] = i + 1
		}
		taken = append(taken, got)
	}
	for i, sl := range taken {
		for _, v := range sl {
			if v != i+1 {
				t.Fatalf("slice %d was overwritten by slice %d", i, v-1)
			}
		}
	}
}

// TestChunkSizing: a slab that expects nothing grows with what it has
// handed out, so rows cost O(log rows) chunks and at most a quarter more
// memory than they use; one that was told what to expect allocates once;
// and Next carries the size forward, halving it while intervals fall
// short of half of it.
func TestChunkSizing(t *testing.T) {
	const rows = 8192
	fill := func(s *Slab[int], n int) (chunks int) {
		for i := 0; i < n; i++ {
			if len(s.free) == 0 {
				chunks++
			}
			s.Take(1)
		}
		return chunks
	}
	var s Slab[int]
	if chunks := fill(&s, rows); chunks > 50 {
		t.Errorf("%d rows taken one at a time from an empty slab cost %d chunks, want O(log rows)", rows, chunks)
	}
	if spare := len(s.free); spare > rows/4 {
		t.Errorf("%d rows left %d elements spare, want at most a quarter", rows, spare)
	}
	next := s.Next()
	if chunks := fill(&next, rows); chunks != 1 || len(next.free) != 0 {
		t.Errorf("a slab sized by Next cost %d chunks with %d spare for the same %d rows, want 1 and 0", chunks, len(next.free), rows)
	}
	var e Slab[int]
	e.Take(3)
	e.Expect(100)
	if chunks := fill(&e, 100); chunks != 1 || len(e.free) != 0 {
		t.Errorf("Expect(100) then 100 rows cost %d chunks with %d spare, want 1 and 0", chunks, len(e.free))
	}
	// One wide interval, then narrow ones: 8192, 4096, ..., and from the
	// first interval at least half the expectation on, its own size.
	narrow := next.Next()
	for want := rows; want >= 16; want /= 2 {
		if narrow.Want() != want {
			t.Fatalf("after a narrow interval the slab expects %d, want %d", narrow.Want(), want)
		}
		narrow.Take(8)
		narrow = narrow.Next()
	}
	if narrow.Want() != 8 {
		t.Errorf("the slab settled on %d, want the narrow interval's 8", narrow.Want())
	}
}

// TestRewindReusesTheNewestChunk: after Rewind a slab hands its memory out
// again, zeroed, from the start of its newest chunk; a frame larger than
// that chunk costs chunks once, and Rewind then sizes one chunk for all
// of it, so the next frame of that size allocates nothing.
func TestRewindReusesTheNewestChunk(t *testing.T) {
	var s Slab[int]
	frame := func(sizes ...int) (chunks int) {
		s.Rewind()
		for _, n := range sizes {
			if n > len(s.free) {
				chunks++
			}
			for i, v := range s.Take(n) {
				if v != 0 {
					t.Fatalf("Take(%d) after Rewind handed out %d at %d, want zeroed", n, v, i)
				}
			}
		}
		for i := range s.chunk[:len(s.chunk)-len(s.free)] {
			s.chunk[i] = 7 // what a decoder writes into its rows
		}
		return chunks
	}
	frame(10, 20)
	if chunks := frame(10, 20); chunks != 0 {
		t.Errorf("a frame as large as the last cost %d chunks, want 0", chunks)
	}
	first := &s.chunk[0]
	if chunks := frame(5); chunks != 0 || &s.chunk[0] != first {
		t.Errorf("a smaller frame cost %d chunks, or was cut from another chunk", chunks)
	}
	if chunks := frame(40, 40); chunks == 0 {
		t.Errorf("a frame larger than the newest chunk cost no chunk")
	}
	if chunks := frame(40, 40); chunks != 0 {
		t.Errorf("after Rewind, a frame as large as the last cost %d chunks, want 0", chunks)
	}
}
