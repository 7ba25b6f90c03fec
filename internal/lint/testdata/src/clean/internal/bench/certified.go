// The positive certification fixtures: one function per proof form the
// offset-provenance prover accepts (docs/LINT.md "Certification").
// Every unchecked call here must come back "certified" and the checked
// scatter "elidable-check"; a refusal is a prover regression.
package bench

import (
	"fixture/internal/core"
	"fixture/internal/radix"
)

// certPack — proof form P1: offsets are a core.PackIndex result used
// unmodified, and the target length equals the packed index space.
func certPack(w *core.Worker, src []uint32) []uint32 {
	keep := core.PackIndex(w, len(src), func(i int) bool { return src[i]&1 == 0 })
	out := make([]uint32, len(src))
	core.IndForEachUnchecked(w, out, keep, func(i int, slot *uint32) { *slot = 1 })
	return out
}

// certAffine — proof form P2: a complete affine fill off[i] = i over
// [0, len(off)) with stride 1. The checked call proves too, which the
// certifier reports as elidable-check.
func certAffine(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	if err := core.IndForEach(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) }); err != nil {
		panic(err)
	}
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) + 1 })
	return dst
}

// certPermuted — proof form P3: an identity fill whose only subsequent
// mutation is a sort, so the slice stays a permutation of [0, n).
func certPermuted(w *core.Worker, n int) []uint32 {
	out := make([]uint32, n)
	perm := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { perm[i] = int32(i) })
	core.SortBy(w, perm, func(a, b int32) bool { return a&7 < b&7 })
	core.IndForEachUnchecked(w, out, perm, func(i int, slot *uint32) { *slot = uint32(i) })
	return out
}

// certPermutedAt — proof form P3 through radix.SortPairsAt, the suffix
// array's shape: an identity fill, a sort of the entries at some
// positions among themselves, then the scatter. SortPairsAt permutes
// its vals argument, so sa stays a permutation of [0, n).
func certPermutedAt(w *core.Worker, keys []uint64, at []int32, vals []uint32) []uint32 {
	n := len(vals)
	out := make([]uint32, n)
	sa := make([]int32, n)
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sa[i] = int32(i)
		}
	})
	radix.SortPairsAt(w, keys, sa, at, 16)
	core.ScatterUnchecked(w, out, sa, vals)
	return out
}

// certScan — proof form P4: chunk boundaries from an inclusive prefix
// sum over non-negative counts accumulated into a zero-initialized
// buffer, with the target sized by the scan's returned total.
func certScan(w *core.Worker, vals []uint32) []uint32 {
	const buckets = 8
	offsets := make([]int32, buckets+1)
	core.ForRange(w, 0, buckets, 0, func(d int) {
		var t int32
		for i := 0; i < len(vals); i++ {
			if int(vals[i]%buckets) == d {
				t++
			}
		}
		offsets[d+1] = t
	})
	total := core.ScanInclusive(w, offsets[1:])
	out := make([]uint32, total)
	core.IndChunksUnchecked(w, out, offsets, func(i int, chunk []uint32) {
		for j := range chunk {
			chunk[j] = uint32(i)
		}
	})
	return out
}

// certScanHelper — proof form P4 with the interprocedural
// non-negativity summary: the per-row byte sizes come from helpers the
// certifier summarizes as >= 0 for all inputs (rowCost -> itemWidth),
// and the offsets survive a post-scatter core.CopyInto because the
// copy source is read-only — the compressed-CSR encoder's exact shape.
func certScanHelper(w *core.Worker, rows [][]uint32) []byte {
	offsets := make([]int64, len(rows)+1)
	core.ForRange(w, 0, len(rows), 0, func(v int) {
		offsets[v+1] = int64(rowCost(rows[v]))
	})
	total := core.ScanInclusive(w, offsets[1:])
	out := make([]byte, total)
	core.IndChunksUnchecked(w, out, offsets, func(i int, chunk []byte) {
		for j := range chunk {
			chunk[j] = byte(i)
		}
	})
	saved := make([]int64, len(rows)+1)
	core.CopyInto(w, saved, offsets)
	return out
}

// rowCost is the summarized size helper: a width per element,
// accumulated with += from results that are themselves summarized
// non-negative one call deeper.
func rowCost(row []uint32) int {
	if len(row) == 0 {
		return 0
	}
	sz := itemWidth(uint64(row[0]))
	for _, u := range row[1:] {
		sz += itemWidth(uint64(u))
	}
	return sz
}

// itemWidth is the leaf helper: a constant seed mutated only by ++.
func itemWidth(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// certBlocks — proof form P2 through the range-bodied engine: the loop
// over a ForBlocks body's handed subrange fills off[i] = i over the
// call's whole [0, n), and the closure-free scatters take the proof
// exactly as the per-element forms do.
func certBlocks(w *core.Worker, vals []uint32) []uint32 {
	n := len(vals)
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off[i] = int32(i)
		}
	})
	if err := core.ScatterChecked(w, dst, off, vals); err != nil {
		panic(err)
	}
	core.ScatterUnchecked(w, dst, off, vals)
	return dst
}

// certHelperRead — proof form P2 with the offsets handed to an in-module
// helper between the fill and the scatter: the callee summary says
// offsetSum only reads them, and its int result carries nothing.
func certHelperRead(w *core.Worker, n int) (int, []uint32) {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	sum := offsetSum(off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return sum, dst
}

func offsetSum(xs []int32) int {
	s := 0
	for _, x := range xs {
		s += int(x)
	}
	return s
}

func init() {
	core.DeclareSite("cert", "pack offsets build", core.Block)
	core.DeclareSite("cert", "affine fill", core.Stride)
	core.DeclareSite("cert", "permutation sort", core.DC)
	core.DeclareSite("cert", "certified scatter", core.SngInd)
	core.DeclareSite("cert", "certified chunks", core.RngInd)
}

// certCountSort — proof form P4 through the counting-sort engine: the
// buckets' starts come back from core.CountSort as the exclusive prefix
// sums of non-negative counts with starts[k] = n, the element count it
// is passed, and the target is sized by that n.
func certCountSort(w *core.Worker, vals []uint32) []uint32 {
	n := len(vals)
	starts := make([]int32, 8+1)
	out := make([]uint32, n)
	core.CountSort(w, n, 8, starts, byLowBits{vals: vals, out: out})
	core.IndChunksUnchecked(w, out, starts, func(i int, chunk []uint32) {
		for j := range chunk {
			chunk[j] = uint32(i)
		}
	})
	return out
}

// byLowBits keys each value by its three low bits.
type byLowBits struct{ vals, out []uint32 }

func (b *byLowBits) CountRange(c core.Counter, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Add(int(b.vals[i] & 7))
	}
}

func (b *byLowBits) PlaceRange(c core.Cursor, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.out[c.Next(int(b.vals[i]&7))] = b.vals[i]
	}
}

// certScanTotal — proof form P4 through a helper's summary: bucketEnds
// returns its offsets with the scan's total beside them, and the target
// is sized by that returned total.
func certScanTotal(w *core.Worker, n int) []uint32 {
	offsets, total := bucketEnds(w, n)
	out := make([]uint32, total)
	core.IndChunksUnchecked(w, out, offsets, func(i int, chunk []uint32) {
		for j := range chunk {
			chunk[j] = uint32(i)
		}
	})
	return out
}

func bucketEnds(w *core.Worker, n int) ([]int32, int32) {
	offsets := make([]int32, n+1)
	core.ForRange(w, 0, n, 0, func(d int) { offsets[d+1] = 1 })
	total := core.ScanInclusive(w, offsets[1:])
	return offsets, total
}
