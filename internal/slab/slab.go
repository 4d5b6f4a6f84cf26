// Package slab allocates report rows in bulk. A reported row is a group, a
// few aggregate states and a few tuple values; built one object at a time
// it costs half a dozen allocations at every tier it crosses. A Slab cuts
// them out of a few large chunks instead. Decoded baggage cuts its tuples'
// values from one the same way, and a link's report decoder cuts every
// frame's rows from slabs it rewinds for the next, and a combiner builds
// each interval's rows in the slabs of the interval before, once its
// publish has returned (Reuse).
package slab

// Slab hands out slices of T cut from chunks it allocates in bulk. A slice
// handed out belongs to its taker until the slab's owner calls Rewind or
// Reuse: the slab never reads, writes or reuses it before, so what is
// built in a slab that is never taken back may be published and aliased
// like any other allocation, and what is built in one that is may only be
// lent (DESIGN.md, "Report ownership"). An owner that has handed its rows
// off for good replaces the slab with Next. The zero value is an empty
// slab.
type Slab[T any] struct {
	chunk []T // the newest chunk
	free  []T // its unused tail
	taken int // elements handed out
	want  int // elements the owner expects to hand out in all
}

// Take returns n zeroed elements that nothing else refers to, with no
// spare capacity to append into. When the newest chunk cannot hold them a
// new one is allocated: large enough for what is still expected, and
// otherwise a quarter of what has been taken — chunks grow with the size
// actually seen, so a one-row owner pays for one row and a wide one
// allocates O(log rows) times.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.free) {
		s.chunk = make([]T, max(n, s.want-s.taken, s.taken/4))
		s.free = s.chunk
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.taken += n
	return out
}

// Expect tells the slab that about n more elements will be taken, so that
// the next chunk holds them all.
func (s *Slab[T]) Expect(n int) { s.want = s.taken + n }

// Rewind takes back every slice the slab has handed out, for an owner
// whose takers are all done with them: a decoder whose last frame has been
// delivered. Later Takes are cut again from the start of the newest chunk,
// zeroed, or, when the slab handed out more since the last Rewind than
// that chunk holds, from a new chunk that holds all of it, so an owner
// whose frames stay the same size allocates nothing after the first.
func (s *Slab[T]) Rewind() {
	if s.taken > len(s.chunk) {
		s.chunk = make([]T, s.taken)
	} else {
		clear(s.chunk[:len(s.chunk)-len(s.free)])
	}
	*s = Slab[T]{chunk: s.chunk, free: s.chunk}
}

// Reuse takes back every slice the slab has handed out, as Rewind does,
// but never allocates: it clears what was taken from the newest chunk,
// cuts later Takes from its start again, and keeps expecting what the
// slab expected (Want). When the slab spilled over several chunks, only
// the newest stays; a Take beyond it gets a new chunk sized for the rest
// of what is expected, and that chunk is the one the next Reuse keeps. The
// newest chunk is kept however little of it later owners take.
func (s *Slab[T]) Reuse() {
	clear(s.chunk[:len(s.chunk)-len(s.free)])
	*s = Slab[T]{chunk: s.chunk, free: s.chunk, want: s.want}
}

// Next returns the empty slab that replaces s once its slices are handed
// off. It expects what s handed out — or half of what s expected when s
// fell short of that, so one wide interval sizes the next few chunks and
// then stops.
func (s *Slab[T]) Next() Slab[T] {
	return Slab[T]{want: max(s.taken, s.want/2)}
}

// Want returns how many elements the slab expects to hand out in all.
func (s *Slab[T]) Want() int { return s.want }
