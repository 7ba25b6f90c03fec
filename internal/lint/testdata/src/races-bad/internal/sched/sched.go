// Package sched is a type-checkable stand-in for the real scheduler:
// the races fixtures need go/types to resolve the Worker fork-method
// signatures (Join branches, For subranges, per-worker IDs). Bodies
// are sequential reference semantics; only the signatures matter.
package sched

type Worker struct{ id int }

func (w *Worker) ID() int { return w.id }

func (w *Worker) Join(fa, fb func(w *Worker)) { fa(w); fb(w) }

func (w *Worker) For(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	body(w, lo, hi)
}
