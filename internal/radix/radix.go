// Package radix implements a parallel least-significant-digit radix
// sort over 8-bit digits — the kernel under the isort benchmark and the
// suffix-array construction. Each counting pass is one call of the
// library's counting-sort engine, core.CountSort: the pass body counts
// each block's digits and then moves each element through its block's
// own cursor, and the engine owns the (block, digit) count matrix, the
// scan that turns it into cursors and the block rule between them — a
// SngInd scatter with independence guaranteed by the scan (the
// algorithmic guarantee the paper's Sec 5.1 discusses), checked under
// core.ModeChecked.
//
// The ping-pong buffers live in a reusable Scratch (docs/MEMORY.md):
// SortPairs checks one out of the calling worker's box stack, and the
// engine takes its matrix from the worker's arena, so repeated sorts on
// a pool — the steady state of every benchmark round — allocate nothing
// once the scratch has grown to the input size. Callers managing their
// own reuse can hold a Scratch and call SortPairsScratch directly.
package radix

import (
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
)

const digitBits = 8
const radixSize = 1 << digitBits

// Scratch holds the reusable memory of SortPairs: the ping-pong key and
// value buffers, plus, for SortPairsAt, the gathered values and their
// loop body. A Scratch grows to the largest sort it has served and is
// reused without shrinking. It is single-owner: one sort at a time.
type Scratch struct {
	keyBuf   []uint64
	valBuf   []int32
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
		core.CountDynamic(core.SngInd)
		core.CountSort(w, n, radixSize, nil, passBody{srcK: srcK, dstK: dstK, srcV: srcV, dstV: dstV, shift: shift})
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

// passBody is the caller's side of one counting-sort pass
// (core.CountSort): both halves key element i by the digit of srcK[i]
// at shift, and the place half moves it, and its value, to the slot
// the block's cursor hands out.
type passBody struct {
	srcK, dstK []uint64
	srcV, dstV []int32
	shift      uint
}

func (p *passBody) CountRange(c core.Counter, lo, hi int) {
	srcK, shift := p.srcK, p.shift
	for i := lo; i < hi; i++ {
		c.Add(int(srcK[i]>>shift) & (radixSize - 1))
	}
}

func (p *passBody) PlaceRange(c core.Cursor, lo, hi int) {
	srcK, dstK, srcV, dstV, shift := p.srcK, p.dstK, p.srcV, p.dstV, p.shift
	for i := lo; i < hi; i++ {
		at := c.Next(int(srcK[i]>>shift) & (radixSize - 1))
		dstK[at] = srcK[i]
		if srcV != nil {
			dstV[at] = srcV[i]
		}
	}
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
	s := arena.AcquireBox[Scratch](w)
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
	arena.ReleaseBox(w, s)
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
