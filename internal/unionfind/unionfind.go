// Package unionfind provides a lock-free concurrent union-find
// (disjoint-set) structure, the substrate under the spanning-forest
// benchmarks (sf, msf). Unions link roots with CAS — the paper's AW
// pattern: conflicting writes to shared parent slots, synchronized with
// atomics — and finds apply best-effort path halving.
package unionfind

import "sync/atomic"

// UF is a concurrent disjoint-set forest over n elements.
type UF struct {
	parent []atomic.Int32
}

// New creates a forest of n singleton sets.
func New(n int32) *UF {
	u := &UF{parent: make([]atomic.Int32, n)}
	for i := range u.parent {
		u.parent[i].Store(int32(i))
	}
	return u
}

// Reset returns every element to its own singleton set, reusing the
// parent array, so round-based callers can keep one forest across
// rounds instead of allocating a fresh one (docs/MEMORY.md). Quiescent
// use only: no concurrent Find/Union may be in flight.
func (u *UF) Reset() {
	for i := range u.parent {
		u.parent[i].Store(int32(i))
	}
}

// Find returns the current root of x, halving paths as it walks. Under
// concurrent unions the returned root may be stale by the time the
// caller uses it; Union accounts for that by revalidating with CAS.
func (u *UF) Find(x int32) int32 {
	for {
		p := u.parent[x].Load()
		if p == x {
			return x
		}
		gp := u.parent[p].Load()
		if gp == p {
			return p
		}
		// Path halving: point x at its grandparent. A lost race is fine.
		u.parent[x].CompareAndSwap(p, gp)
		x = gp
	}
}

// Union merges the sets of a and b, returning true if this call joined
// two previously distinct sets. Roots are linked by id order (higher
// root under lower), which both avoids cycles and makes the structure
// deterministic enough for testing.
func (u *UF) Union(a, b int32) bool {
	for {
		ra, rb := u.Find(a), u.Find(b)
		if ra == rb {
			return false
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Link the larger-id root under the smaller-id root. The CAS
		// fails if rb gained a parent since Find — then retry.
		if u.parent[rb].CompareAndSwap(rb, ra) {
			return true
		}
	}
}

// SameSet reports whether a and b are currently in the same set. It is
// only stable when no unions run concurrently.
func (u *UF) SameSet(a, b int32) bool { return u.Find(a) == u.Find(b) }
