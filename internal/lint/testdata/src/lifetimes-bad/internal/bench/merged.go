package bench

import (
	"fixture/internal/arena"
	"fixture/internal/sched"
)

type mergeBox struct{ n int }

// MergedBoxLeak is the clean fixtures' MergedBox without its release:
// the checkout one branch takes is never returned, whatever the other
// branch binds in its place.
func MergedBoxLeak(w *sched.Worker, n int) int {
	var b *mergeBox
	if w != nil {
		b = arena.AcquireBox[mergeBox](w)
	} else {
		b = new(mergeBox)
	}
	b.n = n
	return b.n
}
