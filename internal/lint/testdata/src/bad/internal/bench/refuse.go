// The negative certification fixtures: offset shapes that look close
// to certifiable but break one obligation each. Every site here must
// come back "refused" — in particular none may be flagged
// elidable-check — and the DeclareSite entries below keep the lint
// rules themselves quiet so the certify golden isolates the prover.
package bench

import (
	"fixture/internal/core"
	"fixture/internal/radix"
)

// refusePackMutated: a PackIndex result is no longer trustworthy after
// an element write.
func refusePackMutated(w *core.Worker, src []uint32) []uint32 {
	keep := core.PackIndex(w, len(src), func(i int) bool { return src[i] > 0 })
	keep[0] = 0
	out := make([]uint32, len(src))
	core.IndForEachUnchecked(w, out, keep, func(i int, slot *uint32) { *slot = 1 })
	return out
}

// refuseStrideZero: a complete fill whose affine form has stride 0 —
// every element gets the same value, so offsets repeat.
func refuseStrideZero(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = 7 })
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

// refuseSortedScan: scan output re-sorted before use — sorting keeps
// the values but the paired chunks no longer mean what the scan proved.
func refuseSortedScan(w *core.Worker, n int) []uint32 {
	offsets := make([]int32, n+1)
	core.ForRange(w, 0, n, 0, func(d int) {
		var t int32
		t++
		offsets[d+1] = t
	})
	total := core.ScanInclusive(w, offsets[1:])
	core.Sort(w, offsets)
	out := make([]uint32, total)
	core.IndChunksUnchecked(w, out, offsets, func(i int, chunk []uint32) {
		for j := range chunk {
			chunk[j] = uint32(i)
		}
	})
	return out
}

// refuseAliased: the offsets escape through a second slice header, so
// writes through the alias are invisible to the per-object analysis.
func refuseAliased(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	alias := off
	alias[0] = int32(n - 1)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

// refuseSignedHelper: the size helper can return a negative sentinel,
// so its non-negativity summary fails and the prefix sum over its
// results cannot be proven monotone.
func refuseSignedHelper(w *core.Worker, rows [][]uint32) []byte {
	offsets := make([]int64, len(rows)+1)
	core.ForRange(w, 0, len(rows), 0, func(v int) {
		offsets[v+1] = int64(signedCost(rows[v]))
	})
	total := core.ScanInclusive(w, offsets[1:])
	out := make([]byte, total)
	core.IndChunksUnchecked(w, out, offsets, func(i int, chunk []byte) {
		for j := range chunk {
			chunk[j] = byte(i)
		}
	})
	return out
}

// signedCost returns -1 for empty rows — one signed return is enough
// to sink the whole summary.
func signedCost(row []uint32) int {
	if len(row) == 0 {
		return -1
	}
	return len(row)
}

// refuseBlocksPartial: a ForBlocks body whose loop skips the first
// index of every handed subrange — not the loop over [lo, hi) that
// makes the call a complete fill, so off keeps unwritten zeros.
func refuseBlocksPartial(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo + 1; i < hi; i++ {
			off[i] = int32(i)
		}
	})
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

// refusePermutedAtWritten: certPermutedAt's shape plus one plain
// element write after the sort — sa[p] = x can duplicate a value, so
// sa is no longer a permutation.
func refusePermutedAtWritten(w *core.Worker, keys []uint64, at []int32, vals []uint32, p int, x int32) []uint32 {
	n := len(vals)
	out := make([]uint32, n)
	sa := make([]int32, n)
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sa[i] = int32(i)
		}
	})
	radix.SortPairsAt(w, keys, sa, at, 16)
	sa[p] = x
	core.ScatterUnchecked(w, out, sa, vals)
	return out
}

func init() {
	core.DeclareSite("refuse", "pack offsets build", core.Block)
	core.DeclareSite("refuse", "affine-ish fills", core.Stride)
	core.DeclareSite("refuse", "offset sort", core.DC)
	core.DeclareSite("refuse", "refused scatter", core.SngInd)
	core.DeclareSite("refuse", "refused chunks", core.RngInd)
}

// refuseCountSortLength: core.CountSort's starts end at n, the count it
// is passed, but the target is one longer, so the last chunk ends short
// of it: the bound the scan proof needs does not hold.
func refuseCountSortLength(w *core.Worker, vals []uint32) []uint32 {
	n := len(vals)
	starts := make([]int32, 8+1)
	out := make([]uint32, n+1)
	core.CountSort(w, n, 8, starts, lowBits{vals: vals, out: out})
	core.IndChunksUnchecked(w, out, starts, func(i int, chunk []uint32) {})
	return out
}

// lowBits keys each value by its three low bits.
type lowBits struct{ vals, out []uint32 }

func (b *lowBits) CountRange(c core.Counter, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Add(int(b.vals[i] & 7))
	}
}

func (b *lowBits) PlaceRange(c core.Cursor, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.out[c.Next(int(b.vals[i]&7))] = b.vals[i]
	}
}
