package core

import (
	"sync"
	"sync/atomic"
)

// AW (arbitrary read-write) helpers — paper Sec 5.2. These are the
// synchronization tools that the paper finds necessary (and "Scared")
// for tasks with overlapping conflicting accesses: CAS-based priority
// updates (write-min/write-max, as in PBBS), and sharded locks for
// element types too large for hardware atomics (the hist case of
// Fig 5b). Using them correctly remains the caller's burden; the library
// cannot rule out atomicity violations, deadlock, or livelock.

// WriteMin32 atomically lowers *a to v if v is smaller, returning true
// when this call performed the update. This is the priority-update
// primitive of Shun et al. used throughout PBBS's irregular kernels.
func WriteMin32(a *atomic.Uint32, v uint32) bool {
	countDyn(AW)
	for {
		old := a.Load()
		if v >= old {
			return false
		}
		if a.CompareAndSwap(old, v) {
			return true
		}
	}
}

// WriteMax32 atomically raises *a to v if v is larger, returning true
// when this call performed the update.
func WriteMax32(a *atomic.Uint32, v uint32) bool {
	countDyn(AW)
	for {
		old := a.Load()
		if v <= old {
			return false
		}
		if a.CompareAndSwap(old, v) {
			return true
		}
	}
}

// ShardedLocks is a fixed-size array of mutexes guarding an index space,
// the expression PBBS-style code reaches for when element types are too
// large for atomics (paper Fig 5b's hist). Lock(i) guards index i; the
// mapping is many-to-one, so two distinct indices may contend on one
// lock but a single index is always guarded by exactly one.
type ShardedLocks struct {
	locks []sync.Mutex
	mask  uint64
}

// NewShardedLocks creates a sharded lock set with at least n shards,
// rounded up to a power of two.
func NewShardedLocks(n int) *ShardedLocks {
	size := ceilPow2Int(n)
	return &ShardedLocks{locks: make([]sync.Mutex, size), mask: uint64(size - 1)}
}

// Lock acquires the shard guarding index i.
func (s *ShardedLocks) Lock(i int) {
	countDyn(AW)
	s.locks[uint64(i)&s.mask].Lock()
}

// Unlock releases the shard guarding index i.
func (s *ShardedLocks) Unlock(i int) {
	s.locks[uint64(i)&s.mask].Unlock()
}

// With runs f while holding the shard guarding index i.
func (s *ShardedLocks) With(i int, f func()) {
	s.Lock(i)
	f()
	s.Unlock(i)
}

func ceilPow2Int(v int) int {
	if v <= 1 {
		return 1
	}
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// WriteMinU32 is WriteMin32 over a plain uint32 slot, for kernels that
// keep dense arrays of ordinary integers and tag individual accesses
// atomic — the Go spelling of the paper's "loads and stores tagged with
// Relaxed ordering".
func WriteMinU32(p *uint32, v uint32) bool {
	countDyn(AW)
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// SetBit atomically sets bit i of the packed bitmap bm (bit i%64 of
// word bm[i/64]), returning true when this call flipped it from 0 to 1.
// This is the claim primitive of bitmap frontiers (direction-optimizing
// BFS): concurrent setters of distinct bits in one word race on the
// word, so the access is AW; the boolean result makes the claim exact —
// exactly one caller wins each bit. Implemented as a CAS loop (an
// atomic fetch-OR needs Go 1.23's atomic.OrUint64).
func SetBit(bm []uint64, i int32) bool {
	countDyn(AW)
	p := &bm[uint32(i)>>6]
	mask := uint64(1) << (uint32(i) & 63)
	for {
		old := atomic.LoadUint64(p)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, old|mask) {
			return true
		}
	}
}

// TestBit reads bit i of the packed bitmap bm with a plain load. Use it
// only where a racing read is benign for the algorithm (level-
// synchronous frontiers read the previous level's bitmap, which no one
// writes during the step).
func TestBit(bm []uint64, i int32) bool {
	return bm[uint32(i)>>6]&(uint64(1)<<(uint32(i)&63)) != 0
}

// WriteMinU64 is WriteMinU32 for 64-bit slots.
func WriteMinU64(p *uint64, v uint64) bool {
	countDyn(AW)
	for {
		old := atomic.LoadUint64(p)
		if v >= old {
			return false
		}
		if a := atomic.CompareAndSwapUint64(p, old, v); a {
			return true
		}
	}
}
