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

// probeFwd forwards its slice wrapped in a struct: the summary must
// root the literal at xs, not count it as fresh memory.
func probeFwd(xs []int32) { probeFill(probeView{xs}, 0) }

// forwardWrapped writes xs[0] from every task, one call removed.
func forwardWrapped(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		probeFwd(xs)
	})
}

// literalWrapped writes through a local wrapper around the shared
// slice: the literal allocates the wrapper, not the slice.
func literalWrapped(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		v := probeView{xs}
		v.xs[0] = 1
	})
}

// pointerWrapped is literalWrapped through &T{...}.
func pointerWrapped(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		v := &probeView{xs: xs}
		v.xs[0] = 2
	})
}

var probeGlobal []int32

// probePick returns a window of package-level memory: a call result
// with no reference input is not fresh memory.
func probePick(i int) []int32 { return probeGlobal[i : i+1] }

// pickedWrite writes probeGlobal[0] from every task through the
// picked window.
func pickedWrite(w *core.Worker, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		buf := probePick(0)
		buf[0] = 1
	})
}

// fieldStored reads back a slice stored into a local struct's field:
// the store, not only the literal, decides what the variable carries.
func fieldStored(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		s := probeView{}
		s.xs = xs
		q := s.xs
		q[0] = 1
	})
}

// probeRow returns dst or package-level memory: its summary says the
// result may not come from its parameters, so a fresh argument does not
// make the result fresh.
func probeRow(dst []int32, i int) []int32 {
	if len(dst) > i {
		return dst
	}
	return probeGlobal[i : i+1]
}

// rowWrite writes probeGlobal[0] from every task through probeRow.
func rowWrite(w *core.Worker, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		buf := probeRow(make([]int32, 0), 0)
		buf[0] = 1
	})
}

// pointerStored is fieldStored through a pointer to a fresh struct.
func pointerStored(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		p := &probeView{}
		p.xs = xs
		q := p.xs
		q[0] = 2
	})
}

// appendedWrapped appends the shared slice into a local slice of
// slices: the appended element keeps its root.
func appendedWrapped(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		var vs [][]int32
		vs = append(vs, xs)
		vs[0][0] = 1
	})
}

// clearShared clears the same shared slice from every task: clear is
// a bulk write like copy.
func clearShared(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		clear(xs)
	})
}

func fillAt(dst []int32, i int) { dst[i] = 1 }

// copiedAlias writes xs through a local copy of its header, once by a
// callee and once by copy: the call-write target is rooted by its
// value, not as a write of the variable tmp itself.
func copiedAlias(w *core.Worker, xs []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		tmp := xs
		fillAt(tmp, 0)
		copy(tmp, xs[1:])
	})
}

// headZ and restZ call each other, and so do headY and restY; only the
// heads write. A region calling either member on the shared out writes
// out, whichever member the callee summary meets first: the cycle is
// iterated to its fixpoint, so the inner member's summary is not left
// at the empty answer its re-entry read.
func headZ(xs []int32) {
	if len(xs) > 1 {
		restZ(xs[1:])
	}
	xs[0] = 0
}

func restZ(ys []int32) { headZ(ys) }

func headFirst(w *core.Worker, out []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) { headZ(out) })
	core.ForRange(w, 0, n, 0, func(i int) { restZ(out) })
}

func headY(xs []int32) {
	if len(xs) > 1 {
		restY(xs[1:])
	}
	xs[0] = 0
}

func restY(ys []int32) { headY(ys) }

func restFirst(w *core.Worker, out []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) { restY(out) })
	core.ForRange(w, 0, n, 0, func(i int) { headY(out) })
}

// swapA and swapB call each other with their two slices swapped, so
// swapA writes b on the second turn: a region calling swapA on a fresh
// buffer and the shared out writes out.
func swapA(a, b []int32, d int) {
	if d > 0 {
		swapB(b, a, d-1)
	}
	a[0] = 1
}

func swapB(a, b []int32, d int) { swapA(a, b, d) }

func swapped(w *core.Worker, out []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		buf := make([]int32, 1)
		swapA(buf, out, 2)
	})
}
