// Package bench is a known-good fixture: every primitive's pattern is
// declared, the unchecked scatter sits next to its SngInd declaration,
// and parallel bodies write only at task-derived indexes.
package bench

import (
	"fixture/internal/core"
)

func goodKernel(w *core.Worker, dst, src []uint32, pos []int) {
	core.ForRange(w, 0, len(src), 0, func(i int) {
		dst[i] = src[i]
	})
	core.IndForEachUnchecked(w, dst, pos, func(i int, slot *uint32) {
		*slot = src[i]
	})
	// The range-bodied form of the same copy: the body owns [lo, hi).
	core.ForBlocks(w, 0, len(src), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = src[i]
		}
	})
}

func init() {
	core.DeclareSite("good", "copy write", core.Stride)
	core.DeclareSite("good", "scatter write by pos", core.SngInd)
}
