package main

import "sync/atomic"

// bitset is a concurrent growable set of small integers (job ids and
// sequence numbers), backing the open loops' at-most-once oracle. Chunks are
// allocated on first touch, so memory follows the highest index used
// (one bit per job) rather than a guessed upper bound.
type bitset struct {
	chunks [bitChunks]atomic.Pointer[[chunkWords]atomic.Uint64]
}

const (
	chunkBits  = 1 << 20
	chunkWords = chunkBits / 64
	bitChunks  = 1 << 10 // up to 2^30 indices
)

func (b *bitset) chunk(i uint64) *[chunkWords]atomic.Uint64 {
	slot := &b.chunks[i/chunkBits]
	if c := slot.Load(); c != nil {
		return c
	}
	fresh := new([chunkWords]atomic.Uint64)
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// set adds i and reports whether it was already present.
func (b *bitset) set(i uint64) bool {
	bit := uint64(1) << (i % 64)
	w := &b.chunk(i)[i%chunkBits/64]
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return old&bit != 0
		}
	}
}

// recentIDs checks that job ids resolve at most once in fixed memory:
// slot id mod recentSlots holds the newest id resolved there. It suits
// the closed loops, where every job in flight was issued within a few
// hundred ids of the newest; an id that finds its slot already taken
// by a newer id is older than the window covers and cannot be checked.
type recentIDs struct{ slots [recentSlots]atomic.Uint64 }

const recentSlots = 1 << 16

// set records id. It reports whether id was recorded before, or, with
// tooOld, whether the window has moved past it.
func (w *recentIDs) set(id uint64) (seen, tooOld bool) {
	s := &w.slots[id%recentSlots]
	for {
		old := s.Load()
		if old >= id+1 {
			return old == id+1, old > id+1
		}
		if s.CompareAndSwap(old, id+1) {
			return false, false
		}
	}
}

// orState sets bits in s and returns the previous value. It is a
// compare-and-swap loop rather than atomic.Uint32.Or, whose returned
// old value go1.24.0 miscompiles on amd64 when the call is inlined.
func orState(s *atomic.Uint32, bits uint32) uint32 {
	for {
		old := s.Load()
		if s.CompareAndSwap(old, old|bits) {
			return old
		}
	}
}

// inRange reports whether i is below the set's capacity.
func inRange(i uint64) bool { return i < chunkBits*bitChunks }
