package arena

import (
	"reflect"

	"repro/internal/sched"
)

// Typed box stacks: per-worker reusable state objects for pointered
// scratch that cannot live in the byte arena. A "box" is a heap struct
// (typically holding slices that grow once and are reused) checked out
// by type with AcquireBox and returned with ReleaseBox. Stacks are LIFO
// per (worker, type) so help-first join nesting is safe: if a worker
// helps with a stolen task that acquires the same box type mid-join, it
// pops a different box than the one its interrupted caller holds.
//
// Boxes also carry the RangeBody state for sched.ForBody: passing a
// box pointer as the interface body allocates nothing, which is what
// lets the destination-passing primitives in internal/core reach zero
// steady-state allocations.

// wscratch is the container hung off sched.Worker's scratch slot: the
// worker's bump arena plus its box stacks.
type wscratch struct {
	arena Arena
	boxes map[reflect.Type][]any
}

func newWscratch() *wscratch {
	return &wscratch{boxes: make(map[reflect.Type][]any)}
}

func scratchOf(w *sched.Worker) *wscratch {
	if s, ok := w.Scratch().(*wscratch); ok {
		return s
	}
	s := newWscratch()
	w.SetScratch(s)
	return s
}

// AcquireBox pops a *T from w's box stack for T, allocating a fresh
// zero T only when the stack is empty (first use at a new nesting
// depth). A nil worker always allocates. Pair with ReleaseBox in LIFO
// order; the box is returned with whatever state the previous user
// left, so growable slices inside it keep their capacity.
func AcquireBox[T any](w *sched.Worker) *T {
	if w == nil {
		return new(T)
	}
	s := scratchOf(w)
	key := reflect.TypeFor[*T]()
	st := s.boxes[key]
	if n := len(st); n > 0 {
		b := st[n-1].(*T)
		st[n-1] = nil // do not retain through the free stack
		s.boxes[key] = st[:n-1]
		return b
	}
	return new(T)
}

// ReleaseBox pushes b back onto w's stack for T. Releasing to a nil
// worker drops the box (it was freshly allocated by AcquireBox(nil)).
func ReleaseBox[T any](w *sched.Worker, b *T) {
	if w == nil || b == nil {
		return
	}
	s := scratchOf(w)
	key := reflect.TypeFor[*T]()
	s.boxes[key] = append(s.boxes[key], b)
}
