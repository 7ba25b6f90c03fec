// Package radix implements a parallel least-significant-digit radix
// sort over 8-bit digits — the kernel under the isort benchmark and the
// suffix-array construction. Each counting pass is the textbook PBBS
// composition of the suite's patterns: a Block pass counting digit
// occurrences per input chunk, a scan over the (digit, chunk) count
// matrix, and a scatter in which each chunk writes its elements through
// precomputed disjoint cursors — SngInd with independence guaranteed by
// the scan (the algorithmic guarantee the paper's Sec 5.1 discusses).
//
// The per-pass histograms and the ping-pong buffers live in a reusable
// Scratch (docs/MEMORY.md): SortPairs checks one out of the calling
// worker's box stack, so repeated sorts on a pool — the steady state of
// every benchmark round — allocate nothing once the scratch has grown
// to the input size. Callers managing their own reuse can hold a
// Scratch and call SortPairsScratch directly.
package radix

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
)

const digitBits = 8
const radixSize = 1 << digitBits

// blockSizeFor picks the per-chunk grain for counting passes.
func blockSizeFor(n int) int {
	bs := 1 << 14
	if n < bs {
		bs = n
	}
	if bs == 0 {
		bs = 1
	}
	return bs
}

// Scratch holds the reusable memory of SortPairs: the ping-pong key and
// value buffers, the (digit, chunk) count matrix, and the pass body —
// plus, for SortPairsAt, the gathered values and their loop body.
// A Scratch grows to the largest sort it has served and is reused
// without shrinking. It is single-owner: one sort at a time.
type Scratch struct {
	keyBuf   []uint64
	valBuf   []int32
	counts   []int32
	body     passBody
	gathered []int32
	at       atBody
}

// SortPairs sorts keys (and vals along with it) by ascending key,
// examining only the low `bits` bits of each key. vals may be nil.
// Both slices are reordered in place. Scratch is checked out of the
// calling worker's box stack, so steady-state calls on a pool allocate
// nothing; sequential (nil-worker) calls allocate a fresh scratch.
func SortPairs(w *core.Worker, keys []uint64, vals []int32, bits int) {
	if w == nil {
		var s Scratch
		SortPairsScratch(nil, keys, vals, bits, &s)
		return
	}
	s := arena.AcquireBox[Scratch](w)
	SortPairsScratch(w, keys, vals, bits, s)
	arena.ReleaseBox(w, s)
}

// SortPairsScratch is SortPairs with caller-managed scratch.
func SortPairsScratch(w *core.Worker, keys []uint64, vals []int32, bits int, s *Scratch) {
	n := len(keys)
	if n < 2 {
		return
	}
	if vals != nil && len(vals) != n {
		panic("radix.SortPairs: keys/vals length mismatch")
	}
	passes := (bits + digitBits - 1) / digitBits
	if passes == 0 {
		passes = 1
	}
	s.keyBuf = core.EnsureLen(s.keyBuf, n)
	if vals != nil {
		s.valBuf = core.EnsureLen(s.valBuf, n)
	}
	srcK, dstK := keys, s.keyBuf
	srcV, dstV := vals, []int32(nil)
	if vals != nil {
		dstV = s.valBuf
	}
	for p := 0; p < passes; p++ {
		shift := uint(p * digitBits)
		countingPass(w, s, srcK, srcV, dstK, dstV, shift)
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if passes%2 == 1 {
		core.CopyInto(w, keys, srcK)
		if vals != nil {
			core.CopyInto(w, vals, srcV)
		}
	}
}

// Phases of passBody.
const (
	passCount uint8 = iota
	passScatter
)

// passBody is the reusable loop body for one counting-sort pass,
// ranging over input blocks. Phase passCount histograms each block's
// digits into the digit-major count matrix; phase passScatter (after
// the matrix has been exclusive-scanned into write cursors) moves each
// block's elements through its disjoint cursors.
type passBody struct {
	srcK, dstK []uint64
	srcV, dstV []int32
	counts     []int32
	n, bs, nb  int
	shift      uint
	phase      uint8
}

func (p *passBody) RunRange(_ *core.Worker, lo, hi int) {
	srcK, dstK, srcV, dstV, counts, nb, shift := p.srcK, p.dstK, p.srcV, p.dstV, p.counts, p.nb, p.shift
	for b := lo; b < hi; b++ {
		blo := b * p.bs
		bhi := blo + p.bs
		if bhi > p.n {
			bhi = p.n
		}
		if p.phase == passCount {
			var local [radixSize]int32
			for i := blo; i < bhi; i++ {
				local[(srcK[i]>>shift)&(radixSize-1)]++
			}
			for d := 0; d < radixSize; d++ {
				counts[d*nb+b] = local[d] //lint:scared digit-major matrix: b lies in this invocation's own [lo, hi) and b < nb, so d*nb+b is distinct for every (d, b)
			}
		} else {
			var cursor [radixSize]int32
			for d := 0; d < radixSize; d++ {
				cursor[d] = counts[d*nb+b]
			}
			for i := blo; i < bhi; i++ {
				d := (srcK[i] >> shift) & (radixSize - 1)
				at := cursor[d]
				cursor[d]++
				dstK[at] = srcK[i] //lint:scared counting-sort scatter: cursor[d] starts at the exclusive scan of counts[d*nb+b], so block b owns a segment of digit d no other block's cursor enters
				if srcV != nil {
					dstV[at] = srcV[i] //lint:scared same slot as dstK[at] above: block b's own segment of digit d
				}
			}
		}
	}
}

// countingPass performs one stable counting-sort pass on the digit at
// shift, from src into dst, with all scratch drawn from s. With a
// warmed scratch it allocates nothing.
func countingPass(w *core.Worker, s *Scratch, srcK []uint64, srcV []int32, dstK []uint64, dstV []int32, shift uint) {
	n := len(srcK)
	bs := blockSizeFor(n)
	nb := (n + bs - 1) / bs
	// counts is digit-major: counts[d*nb + b] = occurrences of digit d
	// in block b. Digit-major layout makes the global exclusive scan
	// directly yield each (digit, block) write cursor.
	s.counts = core.EnsureLen(s.counts, radixSize*nb)
	b := &s.body
	b.srcK, b.srcV, b.dstK, b.dstV = srcK, srcV, dstK, dstV
	b.counts, b.n, b.bs, b.nb, b.shift = s.counts, n, bs, nb, shift
	b.phase = passCount
	core.CountDynamic(core.Block)
	if w == nil || nb <= 1 {
		b.RunRange(nil, 0, nb)
	} else {
		w.ForBody(0, nb, 1, b)
	}
	core.ScanExclusive(w, s.counts)
	b.phase = passScatter
	core.CountDynamic(core.SngInd)
	if w == nil || nb <= 1 {
		b.RunRange(nil, 0, nb)
	} else {
		w.ForBody(0, nb, 1, b)
	}
	b.srcK, b.srcV, b.dstK, b.dstV, b.counts = nil, nil, nil, nil, nil
}

// SortPairsAt sorts the entries vals[at[0]], ..., vals[at[m-1]] among
// those positions by the compact keys keys[0:m] (keys[t] belongs to
// vals[at[t]]), stably: afterwards keys is sorted and vals[at[t]] holds
// the value of the t-th smallest key. Every other entry of vals is
// untouched. The sort runs the counting passes of SortPairs on a
// gathered copy and writes the result back through at — a scatter
// whose targets are distinct only if at is strictly increasing, so at
// is checked for that (and for lying inside vals) in O(m) first, and a
// violation panics before anything is written. Scratch comes from the
// worker's box stack as in SortPairs.
func SortPairsAt(w *core.Worker, keys []uint64, vals, at []int32, bits int) {
	m := len(at)
	if len(keys) != m {
		panic("radix.SortPairsAt: keys/at length mismatch")
	}
	var s *Scratch
	if w == nil {
		s = new(Scratch)
	} else {
		s = arena.AcquireBox[Scratch](w)
	}
	b := &s.at
	b.vals, b.at = vals, at
	b.run(w, atCheck)
	bad := b.bad.Swap(false)
	if !bad && m >= 2 {
		s.gathered = core.EnsureLen(s.gathered, m)
		b.g = s.gathered
		b.run(w, atGather)
		SortPairsScratch(w, keys, s.gathered, bits, s)
		b.run(w, atWrite)
	}
	b.vals, b.at, b.g = nil, nil, nil
	if w != nil {
		arena.ReleaseBox(w, s)
	}
	if bad {
		panic("radix.SortPairsAt: positions not strictly increasing inside vals")
	}
}

// Phases of atBody.
const (
	atCheck uint8 = iota
	atGather
	atWrite
)

// atBody is the loop body of SortPairsAt over compact indices t: phase
// atCheck validates the positions, atGather copies vals[at[t]] into
// g[t], atWrite copies the sorted g[t] back to vals[at[t]].
type atBody struct {
	vals, at, g []int32
	phase       uint8
	bad         atomic.Bool
}

func (b *atBody) run(w *core.Worker, phase uint8) {
	b.phase = phase
	switch phase {
	case atGather:
		core.CountDynamic(core.Stride)
	case atWrite:
		core.CountDynamic(core.SngInd)
	}
	if w == nil || len(b.at) <= 1 {
		b.RunRange(nil, 0, len(b.at))
	} else {
		w.ForBody(0, len(b.at), 0, b)
	}
}

func (b *atBody) RunRange(_ *core.Worker, lo, hi int) {
	vals, at, g := b.vals, b.at, b.g
	switch b.phase {
	case atCheck:
		for t := lo; t < hi; t++ {
			if p := at[t]; p < 0 || int(p) >= len(vals) || (t > 0 && at[t-1] >= p) {
				b.bad.Store(true)
				return
			}
		}
	case atGather:
		for t := lo; t < hi; t++ {
			g[t] = vals[at[t]]
		}
	default:
		for t := lo; t < hi; t++ {
			vals[at[t]] = g[t] //lint:scared write-back: the atCheck phase proved at strictly increasing inside vals before this phase runs, so the targets are distinct (TestSortPairsAtRejectsBadPositions fails if the check lets a duplicate through)
		}
	}
}

// SortU32 sorts keys ascending, examining only the low `bits` bits. The
// widened copy lives in the worker's arena.
func SortU32(w *core.Worker, keys []uint32, bits int) {
	n := len(keys)
	if n < 2 {
		return
	}
	a := arena.Of(w)
	m := a.Mark()
	wide := arena.AllocUninit[uint64](a, n)
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wide[i] = uint64(keys[i])
		}
	})
	SortPairs(w, wide, nil, bits)
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = uint32(wide[i])
		}
	})
	a.Release(m)
}

// BitsFor returns the number of bits needed to represent max.
func BitsFor(max uint64) int {
	b := 0
	for max > 0 {
		b++
		max >>= 1
	}
	if b == 0 {
		b = 1
	}
	return b
}
