// Package hashtable implements phase-concurrent open-addressing hash
// tables in the style of PBBS: fixed capacity, CAS-based insertion,
// linear probing. This is the data structure of the paper's Listing 8 —
// the canonical arbitrary-read-write (AW) pattern, where tasks'
// conflicting accesses to the same slot are mediated by compare-and-
// swap. It backs the dedup and hist benchmarks.
//
// "Phase-concurrent" means all threads perform the same operation kind
// at a time (all inserts, then all reads), which PBBS exploits for
// performance; these tables assume that discipline.
package hashtable

import (
	"sync/atomic"

	"repro/internal/seqgen"
)

// emptyKey marks an unoccupied slot. Keys equal to emptyKey are offset
// by 1 on entry (biased encoding) so the full uint64 space is usable.
const emptyKey = uint64(0)

// Set is a concurrent set of uint64 keys with CAS insertion.
type Set struct {
	slots []atomic.Uint64
	mask  uint64
}

// NewSet creates a set with capacity for about n keys (load factor 1/2).
func NewSet(n int) *Set {
	cap := 16
	for cap < 2*n {
		cap <<= 1
	}
	return &Set{slots: make([]atomic.Uint64, cap), mask: uint64(cap - 1)}
}

func encode(k uint64) uint64 { return k + 1 } // bias away from emptyKey
func decode(s uint64) uint64 { return s - 1 }

// Insert adds k, returning true if this call inserted it (false if it
// was already present). The table panics when completely full, which a
// correctly sized table never is.
func (s *Set) Insert(k uint64) bool {
	ek := encode(k)
	i := seqgen.Hash64(k) & s.mask
	for probes := uint64(0); probes <= s.mask; probes++ {
		cur := s.slots[i].Load()
		if cur == ek {
			return false
		}
		if cur == emptyKey {
			if s.slots[i].CompareAndSwap(emptyKey, ek) {
				return true
			}
			// Lost the race: re-examine the same slot (it may now hold k).
			if s.slots[i].Load() == ek {
				return false
			}
		}
		i = (i + 1) & s.mask
	}
	panic("hashtable.Set: table full")
}

// Reset empties the set in place, reusing the slot array, so round-
// based callers can keep one table across rounds instead of allocating
// a fresh one (docs/MEMORY.md). Quiescent use only: no concurrent
// Insert may be in flight.
func (s *Set) Reset() {
	clear(s.slots)
}

// Capacity returns the number of slots.
func (s *Set) Capacity() int { return len(s.slots) }

// SlotKey returns the key at slot i and whether it is occupied; it
// exposes the layout for parallel extraction (pack over slots).
func (s *Set) SlotKey(i int) (uint64, bool) {
	v := s.slots[i].Load()
	if v == emptyKey {
		return 0, false
	}
	return decode(v), true
}

// LiveMask reports which of the slots [lo, hi), at most 64 of them, are
// occupied: bit k is set when slot lo+k holds a key. It is SlotKey's
// occupancy test for a whole word of slots at once — the mask form
// core.PackMaskInto takes.
func (s *Set) LiveMask(lo, hi int) uint64 {
	var m uint64
	for k := range s.slots[lo:hi] {
		if s.slots[lo+k].Load() != emptyKey {
			m |= 1 << uint(k)
		}
	}
	return m
}

// CountMap is a concurrent map from uint64 keys to int64 counters, used
// by histogram-style kernels: InsertAdd finds-or-creates the key's slot
// and atomically adds to its counter.
type CountMap struct {
	keys []atomic.Uint64
	vals []atomic.Int64
	mask uint64
}

// NewCountMap creates a map with capacity for about n distinct keys.
func NewCountMap(n int) *CountMap {
	cap := 16
	for cap < 2*n {
		cap <<= 1
	}
	return &CountMap{
		keys: make([]atomic.Uint64, cap),
		vals: make([]atomic.Int64, cap),
		mask: uint64(cap - 1),
	}
}

// InsertAdd adds delta to the counter of k, creating it if absent.
func (m *CountMap) InsertAdd(k uint64, delta int64) {
	ek := encode(k)
	i := seqgen.Hash64(k) & m.mask
	for probes := uint64(0); probes <= m.mask; probes++ {
		cur := m.keys[i].Load()
		if cur == ek {
			m.vals[i].Add(delta)
			return
		}
		if cur == emptyKey {
			if m.keys[i].CompareAndSwap(emptyKey, ek) {
				m.vals[i].Add(delta)
				return
			}
			if m.keys[i].Load() == ek {
				m.vals[i].Add(delta)
				return
			}
		}
		i = (i + 1) & m.mask
	}
	panic("hashtable.CountMap: table full")
}

// Capacity returns the number of slots.
func (m *CountMap) Capacity() int { return len(m.keys) }

// Slot returns the key/count at slot i, with ok=false for empty slots.
func (m *CountMap) Slot(i int) (key uint64, count int64, ok bool) {
	v := m.keys[i].Load()
	if v == emptyKey {
		return 0, 0, false
	}
	return decode(v), m.vals[i].Load(), true
}
