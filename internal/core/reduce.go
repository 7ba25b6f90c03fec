package core

// This file holds the read-only (RO) primitives (paper Sec 4.1,
// Listing 3): tasks summarize shared collections without mutating them,
// so AXM holds trivially and the pattern is Fearless. Every reduction
// runs on one engine, ReduceBlocks: the index space is cut into blocks
// of a fixed size, each block is folded by one plain loop, and the
// per-block partials are combined left to right. The blocks depend on n
// alone, never on the worker count or the steals, so a result is
// identical across thread counts for associative combiners, and a float
// sum is bit-identical at every worker count, nil included.

import "repro/internal/arena"

// reduceBlock is the block size of ReduceBlocks, in elements. It is a
// constant so the combine order, and with it every float result, is
// fixed by n.
const reduceBlock = 1024

// reduceBody folds one block per index of its range into parts. It lives
// in a per-worker box, so ReduceBlocks builds no closure of its own.
type reduceBody[R any] struct {
	fold  func(lo, hi int) R
	parts []R
	n     int
}

func (b *reduceBody[R]) RunRange(_ *Worker, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		blo := bi * reduceBlock
		b.parts[bi] = b.fold(blo, min(blo+reduceBlock, b.n))
	}
}

// ReduceBlocks is the one engine under the RO pattern: fold(lo, hi)
// reduces the block [lo, hi) of [0, n) with a plain loop, and comb
// combines the block results, starting from identity, left to right in
// block order. Blocks are reduceBlock elements long and folded in
// parallel; their partials live in the calling worker's arena, and a
// nil worker folds the same blocks in the same order, sequentially.
// Steady state for a pointer-free R: 0 allocs.
func ReduceBlocks[R any](w *Worker, n int, identity R, fold func(lo, hi int) R, comb func(R, R) R) R {
	countDyn(RO)
	acc := identity
	nblocks := (n + reduceBlock - 1) / reduceBlock
	if w == nil || nblocks <= 1 {
		for lo := 0; lo < n; lo += reduceBlock {
			acc = comb(acc, fold(lo, min(lo+reduceBlock, n)))
		}
		return acc
	}
	a := arena.Of(w)
	m := a.Mark()
	parts := arena.AllocUninit[R](a, nblocks)
	b := arena.AcquireBox[reduceBody[R]](w)
	b.fold, b.parts, b.n = fold, parts, n
	w.ForBody(0, nblocks, 1, b)
	b.fold, b.parts = nil, nil
	arena.ReleaseBox(w, b)
	for _, p := range parts {
		acc = comb(acc, p)
	}
	a.Release(m)
	return acc
}

// Reduce folds xs with an associative combiner: it maps each element
// through mapf and combines the results, starting from identity.
func Reduce[T, R any](w *Worker, xs []T, identity R, mapf func(T) R, comb func(R, R) R) R {
	return ReduceBlocks(w, len(xs), identity, func(lo, hi int) R {
		acc := identity
		for _, x := range xs[lo:hi] {
			acc = comb(acc, mapf(x))
		}
		return acc
	}, comb)
}

// MapReduce folds the index space [0, n) with an associative combiner:
// it computes mapf(i) for each index and combines the results. It is
// Reduce for computations not shaped as a slice walk.
func MapReduce[R any](w *Worker, n int, identity R, mapf func(i int) R, comb func(R, R) R) R {
	return ReduceBlocks(w, n, identity, func(lo, hi int) R {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = comb(acc, mapf(i))
		}
		return acc
	}, comb)
}

// Sum returns the sum of xs (paper Listing 3(c)).
func Sum[T Number](w *Worker, xs []T) T {
	var zero T
	return ReduceBlocks(w, len(xs), zero, func(lo, hi int) T {
		var acc T
		for _, x := range xs[lo:hi] {
			acc += x
		}
		return acc
	}, func(a, b T) T { return a + b })
}

// Max returns the maximum element of xs; it panics on an empty slice.
func Max[T Number](w *Worker, xs []T) T {
	if len(xs) == 0 {
		panic("core.Max: empty slice")
	}
	return ReduceBlocks(w, len(xs), xs[0], func(lo, hi int) T {
		m := xs[lo]
		for _, x := range xs[lo+1 : hi] {
			if x > m {
				m = x
			}
		}
		return m
	}, func(a, b T) T {
		if b > a {
			return b
		}
		return a
	})
}

// MaxIndex returns the index of the maximum element of xs, taking the
// smallest index among ties; it panics on an empty slice.
func MaxIndex[T Number](w *Worker, xs []T) int {
	if len(xs) == 0 {
		panic("core.MaxIndex: empty slice")
	}
	// Blocks are combined in index order, so keeping the left operand
	// on a tie keeps the smallest index.
	return ReduceBlocks(w, len(xs), 0, func(lo, hi int) int {
		best := lo
		for i := lo + 1; i < hi; i++ {
			if xs[i] > xs[best] {
				best = i
			}
		}
		return best
	}, func(a, b int) int {
		if xs[b] > xs[a] {
			return b
		}
		return a
	})
}
