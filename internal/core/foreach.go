package core

// This file holds the Fearless regular-access primitives: Stride and
// Block (Sec 4 of the paper). Each task receives disjoint state by
// construction, so no synchronization and no run-time validation is
// needed — the Go analog of Rayon's par_iter_mut / par_chunks_mut
// zero-cost abstractions.

import (
	"repro/internal/arena"
	"repro/internal/sched"
)

// blocksBody carries a range body through sched.ForBody. It lives in a
// per-worker box, so a ForBlocks call builds no closure of its own.
type blocksBody struct {
	f func(lo, hi int)
}

func (b *blocksBody) RunRange(_ *Worker, lo, hi int) { b.f(lo, hi) }

// ForBlocks invokes f(l, h) over disjoint subranges [l, h) that together
// cover [lo, hi) exactly once, in parallel. It is the one engine under
// the Stride pattern: f runs a plain loop over its subrange, so the
// per-element work is compiled into the loop instead of reached through
// a call. ForRange, ForEachIdx, Chunks, CopyInto, Fill and Tabulate run
// the same split with their per-element loop in a boxed body of their
// own (forBoxed). Subranges are at most grain long; grain <= 0 selects
// an automatic grain.
func ForBlocks(w *Worker, lo, hi, grain int, f func(lo, hi int)) {
	countDyn(Stride)
	forBlocks(w, lo, hi, grain, f)
}

func forBlocks(w *Worker, lo, hi, grain int, f func(lo, hi int)) {
	if hi <= lo {
		return
	}
	if inPlace(w, lo, hi) {
		f(lo, hi)
		return
	}
	forBoxed(w, lo, hi, grain, blocksBody{f})
}

// boxedBody is the constraint of forBoxed: a range body type B whose
// pointer carries RunRange.
type boxedBody[B any] interface {
	*B
	sched.RangeBody
}

// forBoxed drives body over [lo, hi) through w.ForBody from a
// per-worker box: the per-element wrappers carry their arguments in a
// body struct instead of building a range closure per call, so a call
// whose own function arguments are built once allocates nothing. Each
// wrapper runs a nil worker or a one-element range in place itself,
// with a direct call that keeps the body on its stack.
func forBoxed[B any, P boxedBody[B]](w *Worker, lo, hi, grain int, body B) {
	b := arena.AcquireBox[B](w)
	*b = body
	w.ForBody(lo, hi, grain, P(b))
	var zero B
	*b = zero
	arena.ReleaseBox(w, b)
}

// inPlace reports whether a wrapper runs its body on the caller: a nil
// worker, or a range with at most one element.
func inPlace(w *Worker, lo, hi int) bool { return w == nil || hi-lo <= 1 }

type rangeBody struct{ f func(i int) }

func (b *rangeBody) RunRange(_ *Worker, lo, hi int) {
	f := b.f
	for i := lo; i < hi; i++ {
		f(i)
	}
}

// ForRange invokes f(i) for every i in [lo, hi), in parallel: the
// per-element form of ForBlocks, for bodies too irregular to gain from
// a range loop. Typical bodies write out[i] for distinct arrays out.
// grain <= 0 selects an automatic grain.
func ForRange(w *Worker, lo, hi, grain int, f func(i int)) {
	countDyn(Stride)
	b := rangeBody{f}
	if inPlace(w, lo, hi) {
		b.RunRange(w, lo, hi)
		return
	}
	forBoxed(w, lo, hi, grain, b)
}

type eachBody[T any] struct {
	xs []T
	f  func(i int, x *T)
}

func (b *eachBody[T]) RunRange(_ *Worker, lo, hi int) {
	xs, f := b.xs, b.f
	for i := lo; i < hi; i++ {
		f(i, &xs[i])
	}
}

// ForEachIdx invokes f(i, &xs[i]) for every element of xs, in parallel —
// the Stride pattern (paper Listing 4(e), Rayon's par_iter_mut). Each
// task may mutate only the element passed to it.
func ForEachIdx[T any](w *Worker, xs []T, grain int, f func(i int, x *T)) {
	countDyn(Stride)
	b := eachBody[T]{xs, f}
	if inPlace(w, 0, len(xs)) {
		b.RunRange(w, 0, len(xs))
		return
	}
	forBoxed(w, 0, len(xs), grain, b)
}

type chunksBody[T any] struct {
	xs   []T
	size int
	f    func(ci int, chunk []T)
}

func (b *chunksBody[T]) RunRange(_ *Worker, lo, hi int) {
	xs, size, f := b.xs, b.size, b.f
	for ci := lo; ci < hi; ci++ {
		f(ci, xs[ci*size:min(ci*size+size, len(xs))])
	}
}

// Chunks splits xs into contiguous chunks of size elements (the final
// chunk may be shorter) and invokes f(ci, chunk) for each, in parallel —
// the Block pattern (paper Listing 5, Rayon's par_chunks_mut). Each task
// may mutate only its chunk.
func Chunks[T any](w *Worker, xs []T, size int, f func(ci int, chunk []T)) {
	if size <= 0 {
		size = 1
	}
	countDyn(Block)
	n := (len(xs) + size - 1) / size
	b := chunksBody[T]{xs, size, f}
	if inPlace(w, 0, n) {
		b.RunRange(w, 0, n)
		return
	}
	forBoxed(w, 0, n, 1, b)
}

type fillBody[T any] struct {
	xs []T
	v  T
}

func (b *fillBody[T]) RunRange(_ *Worker, lo, hi int) {
	xs, v := b.xs, b.v
	for i := lo; i < hi; i++ {
		xs[i] = v
	}
}

// Fill sets every element of xs to v, in parallel (Stride).
func Fill[T any](w *Worker, xs []T, v T) {
	countDyn(Stride)
	b := fillBody[T]{xs, v}
	if inPlace(w, 0, len(xs)) {
		b.RunRange(w, 0, len(xs))
		return
	}
	forBoxed(w, 0, len(xs), 0, b)
}

type tabulateBody[T any] struct {
	out []T
	f   func(i int) T
}

func (b *tabulateBody[T]) RunRange(_ *Worker, lo, hi int) {
	out, f := b.out, b.f
	for i := lo; i < hi; i++ {
		out[i] = f(i)
	}
}

// Tabulate builds a slice of length n whose i-th element is f(i),
// computed in parallel (Stride writes into a fresh slice).
func Tabulate[T any](w *Worker, n int, f func(i int) T) []T {
	out := make([]T, n)
	countDyn(Stride)
	b := tabulateBody[T]{out, f}
	if inPlace(w, 0, n) {
		b.RunRange(w, 0, n)
		return out
	}
	forBoxed(w, 0, n, 0, b)
	return out
}

type copyBody[T any] struct{ dst, src []T }

func (b *copyBody[T]) RunRange(_ *Worker, lo, hi int) {
	copy(b.dst[lo:hi], b.src[lo:hi])
}

// CopyInto copies src into dst (which must be at least as long), in
// parallel (Stride).
func CopyInto[T any](w *Worker, dst, src []T) {
	if len(dst) < len(src) {
		panic("core.CopyInto: dst shorter than src")
	}
	countDyn(Stride)
	b := copyBody[T]{dst, src}
	if inPlace(w, 0, len(src)) {
		b.RunRange(w, 0, len(src))
		return
	}
	forBoxed(w, 0, len(src), 0, b)
}
