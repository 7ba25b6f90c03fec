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

// sharedWindow hands every task the same window: the callee's appends
// all land in buf[0:s].
func sharedWindow(w *core.Worker, buf []int32, n, s int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		collect(buf[:0:s], i)
	})
}

func collect(dst []int32, v int) []int32 {
	return append(dst[:0], int32(v))
}

// appendShared appends into one shared buffer from every task: each
// append writes buf[0], whatever its result is bound to.
func appendShared(w *core.Worker, buf []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		tmp := append(buf[:0], int32(i))
		_ = tmp
	})
}

// probeView wraps a shared slice; probeFill writes through the struct
// argument into the slice's memory.
type probeView struct{ xs []int32 }

func probeFill(v probeView, i int) { v.xs[i] = 1 }

// structWrapped hands every task the same wrapped slice: each call
// writes xs[0].
func structWrapped(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		probeFill(probeView{xs}, 0)
	})
}
