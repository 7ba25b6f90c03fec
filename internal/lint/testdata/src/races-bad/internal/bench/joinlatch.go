package bench

import (
	"fixture/internal/core"
)

// joinLatch hand-rolls a completion flag across the two branches of a
// Join: both branches write done, and the left branch also spins on it.
// The branches may run concurrently on different workers, so the shared
// scalar write is a race — the shape the scheduler's internal join
// frames exist to encapsulate behind an atomic latch.
func joinLatch(w *core.Worker, src []uint32) uint32 {
	done := false
	sum := uint32(0)
	w.Join(
		func(w *core.Worker) {
			for _, v := range src[:len(src)/2] {
				sum += v
			}
			done = true
		},
		func(w *core.Worker) {
			for _, v := range src[len(src)/2:] {
				sum += v
			}
			done = true
		},
	)
	_ = done
	return sum
}
