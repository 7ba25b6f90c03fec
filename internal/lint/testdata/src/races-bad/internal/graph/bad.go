// Negative write-certification fixtures: each function is one
// obligation away from a certifiable shape, and every shared write
// here must be refused. internal/graph is an enforced directory, so
// the unmarked refusals must also count as unexplained — only the
// //lint:scared site is exempt.
package graph

import (
	"sync"

	"fixture/internal/core"
)

// DroppedAtomic: a captured scalar updated with a plain read-modify-
// write where only an atomic would do.
func DroppedAtomic(w *core.Worker, n int) int64 {
	var total int64
	core.ForRange(w, 0, n, 0, func(i int) {
		total += int64(i)
	})
	return total
}

// EarlyUnlock: the lock is released before the write it was meant to
// guard.
func EarlyUnlock(w *core.Worker, n int) int {
	var mu sync.Mutex
	sum := 0
	core.ForRange(w, 0, n, 0, func(i int) {
		mu.Lock()
		mu.Unlock()
		sum += i
	})
	return sum
}

// AliasedOwner: the owner word starts as the task index but is
// conditionally rebound, so two tasks can collide on slot 0.
func AliasedOwner(w *core.Worker, out []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		t := i
		if t > n/2 {
			t = 0
		}
		out[t] = int32(i)
	})
}

// BlocksFixedSlot: a ForBlocks body owns its subrange, not slot 0 —
// every invocation writes the same element.
func BlocksFixedSlot(w *core.Worker, out []int32, n int) {
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		out[0] = int32(hi - lo)
	})
}

// Audited: a data-dependent scatter the analysis cannot prove, audited
// with a marker — refused, but not unexplained.
func Audited(w *core.Worker, out []int32, idx []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		out[idx[i]] = int32(i) //lint:scared fixture: duplicate-free idx established by the generator
	})
}

// HelperNamedBody: every task hands the whole shared slice to a helper
// that runs ForEachIdx over it with a body its summary cannot see; the
// summary counts the handed slice as written.
func HelperNamedBody(w *core.Worker, out []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		bumpEach(w, out)
	})
}

func bumpOne(i int, p *int32) { *p = int32(i) }

func bumpEach(w *core.Worker, xs []int32) { core.ForEachIdx(w, xs, 0, bumpOne) }
