package bench

import (
	"fixture/internal/core"
)

func raceKernel(w *core.Worker, out, src []uint32) {
	total := uint32(0)
	core.ForRange(w, 0, len(src), 0, func(i int) {
		out[0] = src[i]
		total += src[i]
	})
	_ = total
	core.ForBlocks(w, 0, len(src), 0, func(lo, hi int) {
		out[0] = src[lo]
	})
}
