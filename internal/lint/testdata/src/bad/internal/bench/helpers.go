// Negative certification fixtures for what the shared analysis core
// decides for the prover: a call use answered by the callee summary,
// and bodies the region map leaves unbound. Every site here must come
// back "refused".
package bench

import (
	"fixture/internal/core"
	"fixture/internal/sched"
)

// refuseHelperWrite: an in-module helper writes one of the offsets
// between the fill and the scatter; the callee summary reports the
// write, so the fill no longer describes what the scatter reads.
func refuseHelperWrite(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	pinFirst(off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func pinFirst(xs []int32) { xs[0] = 0 }

// refuseHelperKeep: an in-module helper keeps the offsets in a
// package-level variable, where any later write is out of sight.
func refuseHelperKeep(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	stashOffsets(off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

var stash []int32

func stashOffsets(xs []int32) { stash = xs }

// refuseNamedAfterScan: the counting body is bound to a name and handed
// to ForBlocks only after the scan. Its text sits before the scan, but
// it runs after it: a body handed by name stays unbound.
func refuseNamedAfterScan(w *core.Worker, n int) []uint32 {
	offsets := make([]int32, n+1)
	count := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			offsets[i+1] = 1
		}
	}
	total := core.ScanInclusive(w, offsets[1:])
	core.ForBlocks(w, 0, n, 0, count)
	out := make([]uint32, total)
	core.IndChunksUnchecked(w, out, offsets, func(i int, chunk []uint32) {
		for j := range chunk {
			chunk[j] = uint32(i)
		}
	})
	return out
}

// refuseJoinFill: the fill loop runs in one branch of a Worker.Join, a
// fork point's region, which is no loop over the offsets' index space.
func refuseJoinFill(w *core.Worker, sw *sched.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	sw.Join(func(*sched.Worker) {
		for i := 0; i < n; i++ {
			off[i] = int32(i)
		}
	}, func(*sched.Worker) {})
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func init() {
	core.DeclareSite("helpers", "offset fills", core.Stride)
	core.DeclareSite("helpers", "offset scan", core.Block)
	core.DeclareSite("helpers", "refused scatter", core.SngInd)
	core.DeclareSite("helpers", "refused chunks", core.RngInd)
}

// refuseEachCallback and refuseChunksCallback: a core primitive hands
// its body a pointer to, or a window of, each offset, and the body
// overwrites them. The substrate's summary leaves out what a callback
// does with the memory it hands over, so a core call answers only
// through a prover role.
func refuseEachCallback(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	core.ForEachIdx(w, off, 0, func(i int, p *int32) { *p = 7 })
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func refuseChunksCallback(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	core.Chunks(w, off, 4, func(ci int, chunk []int32) { chunk[0] = 7 })
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

// refuseSharedWriter: the helper writes through an expression the
// rooting rule cannot resolve, which its summary reports as a shared
// write, not as a write through its parameter.
func refuseSharedWriter(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	zapFirst(off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func firstOf(xs []int32) []int32 { return xs }

func zapFirst(xs []int32) { firstOf(xs)[0] = 7 }

// refuseRecursiveWriter and refuseRecursiveEntry: zeroHead and zeroRest
// call each other. Summarized from zeroHead first, zeroRest's summary
// still writes through zeroHead: the callee summary iterates the cycle
// to its fixpoint instead of keeping the empty answer a re-entry gets.
func refuseRecursiveWriter(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	zeroHead(off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func refuseRecursiveEntry(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	zeroRest(off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func zeroHead(xs []int32) {
	if len(xs) > 1 {
		zeroRest(xs[1:])
	}
	xs[0] = 0
}

func zeroRest(ys []int32) { zeroHead(ys) }

// refuseHelperCallback and refuseHelperNamedBody: a helper hands the
// offsets to ForEachIdx with a body the helper's summary cannot see (its
// own parameter, a package-level function), and that body overwrites
// every offset: the summary counts the primitive's out argument as
// written.
func refuseHelperCallback(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	eachOf(w, off, func(i int, p *int32) { *p = 7 })
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func eachOf(w *core.Worker, xs []int32, f func(int, *int32)) { core.ForEachIdx(w, xs, 0, f) }

func refuseHelperNamedBody(w *core.Worker, n int) []uint32 {
	dst := make([]uint32, n)
	off := make([]int32, n)
	core.ForRange(w, 0, n, 0, func(i int) { off[i] = int32(i) })
	bumpAll(w, off)
	core.IndForEachUnchecked(w, dst, off, func(i int, slot *uint32) { *slot = uint32(i) })
	return dst
}

func bump(i int, p *int32) { *p = 7 }

func bumpAll(w *core.Worker, xs []int32) { core.ForEachIdx(w, xs, 0, bump) }
