package core

// Scans and packs (paper's "scan" and "pack" algorithmic patterns) are
// implemented as two-pass blocked algorithms: a Block-pattern pass
// computing per-chunk summaries, a short sequential scan over the chunk
// summaries, and a second Block-pattern pass writing results. Both
// passes touch disjoint chunks, so the whole construction is Fearless.
//
// Allocation discipline (docs/MEMORY.md): the per-chunk summary buffers
// come from the calling worker's scratch arena (internal/arena) under a
// Mark/Release scope, the loop bodies are reusable per-worker boxes
// driven through sched.ForBody, and every primitive has a
// destination-passing *Into form that reuses a caller-owned output
// buffer. In their steady state the scans and packs allocate nothing.

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/arena"
)

// scanTargetBytes is the cache budget per scan chunk: the per-chunk
// grain is derived from the element size so one chunk's worth of data
// (~64 KiB, half a typical L2 slice, read once and written once per
// pass) stays resident between the two touches. A var so the grain
// sweep in EXPERIMENTS.md can measure alternatives.
var scanTargetBytes = 64 << 10

// scanBlockMin floors the derived grain so pathological element sizes
// cannot degenerate the two-pass structure into per-element tasks.
const scanBlockMin = 512

// scanBlockFor returns the per-chunk element count for elements of the
// given size, targeting scanTargetBytes per chunk.
func scanBlockFor(elemSize uintptr) int {
	if elemSize == 0 {
		return 1 << 16
	}
	b := scanTargetBytes / int(elemSize)
	if b < scanBlockMin {
		b = scanBlockMin
	}
	return b
}

// scanGrain is scanBlockFor over a type parameter.
func scanGrain[T any]() int {
	return scanBlockFor(unsafe.Sizeof(*new(T)))
}

// packIndexLimit bounds the index space of the packs: packed
// indices are int32, so n past this limit would overflow silently.
// A var (not const) so the guard path is testable with a small
// injected limit instead of a 2^31-element input.
var packIndexLimit = int64(math.MaxInt32) + 1

// ensureLen is the destination-passing growth rule: reuse dst's backing
// array when it is big enough, reallocate (amortized, to exactly n)
// when not. Steady-state calls with a warmed destination do not
// allocate.
func ensureLen[T any](dst []T, n int) []T {
	if n <= cap(dst) {
		return dst[:n]
	}
	return make([]T, n)
}

// EnsureLen resizes dst to length n, reusing its backing array whenever
// capacity allows. It is the helper behind every *Into primitive,
// exported so benchmark kernels can apply the same convention to their
// own round-persistent buffers.
func EnsureLen[T any](dst []T, n int) []T {
	return ensureLen(dst, n)
}

// Phases of the two-pass scan/pack bodies.
const (
	phaseCount uint8 = iota
	phaseWrite
)

// sumScanBody is the reusable loop body for the two block passes of a
// sum scan. It ranges over block indices; src and dst may alias (the
// in-place forms). Acquired from the worker's box stack, so the
// steady-state scan builds no closures and allocates nothing.
type sumScanBody[T Number] struct {
	src, dst  []T
	sums      []T
	block     int
	phase     uint8
	inclusive bool
}

func (s *sumScanBody[T]) RunRange(_ *Worker, lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		blo := ci * s.block
		bhi := min(blo+s.block, len(s.src))
		switch {
		case s.phase == phaseCount:
			var acc T
			for i := blo; i < bhi; i++ {
				acc += s.src[i]
			}
			s.sums[ci] = acc
		case s.inclusive:
			acc := s.sums[ci]
			for i := blo; i < bhi; i++ {
				acc += s.src[i]
				s.dst[i] = acc
			}
		default:
			acc := s.sums[ci]
			for i := blo; i < bhi; i++ {
				v := s.src[i]
				s.dst[i] = acc
				acc += v
			}
		}
	}
}

// sumScan is the shared engine: scan src into dst (which may alias src)
// and return the total. dst must have length len(src).
func sumScan[T Number](w *Worker, dst, src []T, inclusive bool) T {
	var total T
	n := len(src)
	if n == 0 {
		return total
	}
	block := scanGrain[T]()
	countDyn(Block)
	countDyn(Block)
	if w == nil || n <= block {
		// Single sequential pass; no summary buffer needed at all.
		if inclusive {
			for i, v := range src {
				total += v
				dst[i] = total
			}
		} else {
			for i, v := range src {
				dst[i] = total
				total += v
			}
		}
		return total
	}
	nblocks := (n + block - 1) / block
	a := arena.Of(w)
	m := a.Mark()
	sums := arena.AllocUninit[T](a, nblocks)
	b := arena.AcquireBox[sumScanBody[T]](w)
	b.src, b.dst, b.sums = src, dst, sums
	b.block, b.inclusive = block, inclusive
	b.phase = phaseCount
	w.ForBody(0, nblocks, 1, b)
	for ci := range sums {
		s := sums[ci]
		sums[ci] = total
		total += s
	}
	b.phase = phaseWrite
	w.ForBody(0, nblocks, 1, b)
	b.src, b.dst, b.sums = nil, nil, nil
	arena.ReleaseBox(w, b)
	a.Release(m)
	return total
}

// ScanExclusive replaces xs[i] with the sum of xs[0..i) in place and
// returns the total sum of the original slice. Steady state: 0 allocs.
func ScanExclusive[T Number](w *Worker, xs []T) T {
	return sumScan(w, xs, xs, false)
}

// ScanExclusiveInto writes the exclusive prefix sums of xs into dst
// (len(dst) >= len(xs)), leaving xs intact, and returns the total.
func ScanExclusiveInto[T Number](w *Worker, dst, xs []T) T {
	return sumScan(w, dst[:len(xs)], xs, false)
}

// ScanInclusive replaces xs[i] with the sum of xs[0..i] in place and
// returns the total sum.
func ScanInclusive[T Number](w *Worker, xs []T) T {
	return sumScan(w, xs, xs, true)
}

// opScanBody is sumScanBody for a caller-supplied combiner.
type opScanBody[T any] struct {
	xs       []T
	sums     []T
	block    int
	phase    uint8
	identity T
	op       func(a, b T) T
}

func (s *opScanBody[T]) RunRange(_ *Worker, lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		blo := ci * s.block
		bhi := min(blo+s.block, len(s.xs))
		if s.phase == phaseCount {
			acc := s.identity
			for i := blo; i < bhi; i++ {
				acc = s.op(acc, s.xs[i])
			}
			s.sums[ci] = acc
		} else {
			acc := s.sums[ci]
			for i := blo; i < bhi; i++ {
				v := s.xs[i]
				s.xs[i] = acc
				acc = s.op(acc, v)
			}
		}
	}
}

// ScanExclusiveOp replaces xs[i] with op(identity, xs[0], ..., xs[i-1])
// in place and returns the total op-fold of the original slice. op must
// be associative with identity as its unit. The per-chunk summary
// buffer comes from the worker's arena (for pointer-free T; pointered
// element types fall back to a heap summary buffer).
func ScanExclusiveOp[T any](w *Worker, xs []T, identity T, op func(a, b T) T) T {
	n := len(xs)
	if n == 0 {
		return identity
	}
	block := scanGrain[T]()
	countDyn(Block)
	countDyn(Block)
	if w == nil || n <= block {
		total := identity
		for i := range xs {
			v := xs[i]
			xs[i] = total
			total = op(total, v)
		}
		return total
	}
	nblocks := (n + block - 1) / block
	a := arena.Of(w)
	m := a.Mark()
	sums := arena.AllocUninit[T](a, nblocks)
	b := arena.AcquireBox[opScanBody[T]](w)
	b.xs, b.sums = xs, sums
	b.block, b.identity, b.op = block, identity, op
	b.phase = phaseCount
	w.ForBody(0, nblocks, 1, b)
	total := identity
	for ci := range sums {
		s := sums[ci]
		sums[ci] = total
		total = op(total, s)
	}
	b.phase = phaseWrite
	w.ForBody(0, nblocks, 1, b)
	b.xs, b.sums, b.op = nil, nil, nil
	arena.ReleaseBox(w, b)
	a.Release(m)
	return total
}

// packWord is the pack engine's unit of marking: a block is a run of
// whole 64-index mask words, so concurrent blocks never share one.
const packWord = 64

// packBody is the reusable loop body for the two block passes of a
// pack, ranging over blocks of `block` mask words. The marking pass
// evaluates the predicate once per index, recording the verdicts as a
// bitmask (one word per 64 indices) and a per-block match count; after
// the offsets scan, the writing pass walks the set bits into disjoint
// output ranges. The predicate comes either per index (keep) or per
// word (mask, the range-bodied form); the emitted value is the index
// itself or, with src set, src[index].
type packBody struct {
	n, block int
	keep     func(i int) bool
	mask     func(lo, hi int) uint64
	src      []int32
	bits     []uint64 // verdicts: bit i%64 of bits[i/64]
	counts   []int32  // per-block match counts, then exclusive offsets
	out      []int32
	phase    uint8
}

func (p *packBody) RunRange(_ *Worker, lo, hi int) {
	words, out, src := p.bits, p.out, p.src
	for ci := lo; ci < hi; ci++ {
		wlo := ci * p.block
		whi := min(wlo+p.block, len(words))
		if p.phase == phaseCount {
			c := 0
			for wi := wlo; wi < whi; wi++ {
				base := wi * packWord
				top := min(base+packWord, p.n)
				var m uint64
				if p.mask != nil {
					// Bits past the word's extent would name indices
					// outside [0, n); drop them.
					m = p.mask(base, top) & (^uint64(0) >> uint(packWord-(top-base)))
				} else {
					for i := base; i < top; i++ {
						if p.keep(i) {
							m |= 1 << uint(i-base)
						}
					}
				}
				words[wi] = m
				c += bits.OnesCount64(m)
			}
			p.counts[ci] = int32(c)
			continue
		}
		at := p.counts[ci]
		for wi := wlo; wi < whi; wi++ {
			for m := words[wi]; m != 0; m &= m - 1 {
				v := int32(wi*packWord + bits.TrailingZeros64(m))
				if src != nil {
					v = src[v]
				}
				out[at] = v //lint:scared pack cursor: at walks [counts[ci], counts[ci+1]), this chunk's slots by the exclusive-scan invariant
				at++
			}
		}
	}
}

// packBlockWords is the pack's block size in mask words: the scan
// grain for the int32 output, rounded up to whole words.
func packBlockWords() int {
	return (scanBlockFor(unsafe.Sizeof(int32(0))) + packWord - 1) / packWord
}

// packMark runs the marking pass and offset scan of a pack over [0, n)
// with the predicate already set on b, leaving b.bits holding the
// verdicts and b.counts the exclusive block offsets. Returns the total
// match count. The caller owns releasing b and the arena mark.
func packMark(w *Worker, a *arena.Arena, b *packBody, n int) int32 {
	if int64(n) > packIndexLimit {
		panic(fmt.Sprintf("core.PackIndex: index space %d exceeds int32 packed-index limit %d; indices would overflow", n, packIndexLimit))
	}
	block := packBlockWords()
	nwords := (n + packWord - 1) / packWord
	b.n, b.block = n, block
	b.bits = arena.AllocUninit[uint64](a, nwords)
	b.counts = arena.AllocUninit[int32](a, (nwords+block-1)/block)
	b.phase = phaseCount
	countDyn(Block)
	countDyn(Block)
	packPass(w, b)
	var total int32
	for ci := range b.counts {
		c := b.counts[ci]
		b.counts[ci] = total
		total += c
	}
	return total
}

// packWrite runs the writing pass of a pack into out and clears b.
func packWrite(w *Worker, b *packBody, out []int32) {
	b.out = out
	b.phase = phaseWrite
	packPass(w, b)
	b.keep, b.mask, b.src, b.bits, b.counts, b.out = nil, nil, nil, nil, nil, nil
}

func packPass(w *Worker, b *packBody) {
	if nblocks := len(b.counts); w == nil || nblocks <= 1 {
		b.RunRange(nil, 0, nblocks)
	} else {
		w.ForBody(0, nblocks, 1, b)
	}
}

// pack is the engine behind every index/value pack: mark, scan, write.
func pack(w *Worker, n int, keep func(i int) bool, mask func(lo, hi int) uint64, src, dst []int32) []int32 {
	if n <= 0 {
		return dst[:0]
	}
	a := arena.Of(w)
	m := a.Mark()
	b := arena.AcquireBox[packBody](w)
	b.keep, b.mask, b.src = keep, mask, src
	total := packMark(w, a, b, n)
	dst = ensureLen(dst, int(total))
	packWrite(w, b, dst)
	arena.ReleaseBox(w, b)
	a.Release(m)
	return dst
}

// PackIndexInto writes, in order, every index i in [0, n) for which
// keep(i) is true into dst (reusing its backing array when capacity
// allows) and returns the packed slice. keep is called exactly once per
// index. Steady state with a warmed destination: 0 allocs. It is the
// destination-passing form of the paper's "pack" pattern, and the
// per-element form of PackMaskInto.
func PackIndexInto(w *Worker, n int, keep func(i int) bool, dst []int32) []int32 {
	return pack(w, n, keep, nil, nil, dst)
}

// PackMaskInto is PackIndexInto with a range-bodied predicate: mask(lo,
// hi) is called once per word of at most 64 consecutive indices and
// returns their verdicts, bit k set when index lo+k is kept. The test
// then runs as a plain loop inside mask rather than as a call per
// index.
func PackMaskInto(w *Worker, n int, mask func(lo, hi int) uint64, dst []int32) []int32 {
	return pack(w, n, nil, mask, nil, dst)
}

// PackInto is PackMaskInto over the positions of src, emitting the kept
// elements src[i] instead of their positions — the frontier-shrinking
// step of round-based kernels, written straight into dst. dst must not
// alias src.
func PackInto(w *Worker, src []int32, mask func(lo, hi int) uint64, dst []int32) []int32 {
	return pack(w, len(src), nil, mask, src, dst)
}

// PackIndex returns, in order, every index i in [0, n) for which
// keep(i) is true. The result is freshly allocated; hot paths that can
// reuse a buffer should call PackIndexInto.
func PackIndex(w *Worker, n int, keep func(i int) bool) []int32 {
	if n <= 0 {
		return nil
	}
	return PackIndexInto(w, n, keep, nil)
}
