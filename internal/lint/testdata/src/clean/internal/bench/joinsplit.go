package bench

import (
	"fixture/internal/core"
)

// joinSplit is the fearless divide-and-conquer shape: each Join branch
// writes its own accumulator, and the owner combines them only after
// Join returns.
func joinSplit(w *core.Worker, src []uint32) uint32 {
	var left, right uint32
	w.Join(
		func(w *core.Worker) {
			for _, v := range src[:len(src)/2] {
				left += v
			}
		},
		func(w *core.Worker) {
			for _, v := range src[len(src)/2:] {
				right += v
			}
		},
	)
	return left + right
}
