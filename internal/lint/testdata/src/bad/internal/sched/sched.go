// Package sched stubs the scheduler's fork point: a Worker.Join branch
// is a parallel region of its own, not a loop over an index space.
package sched

type Worker struct{}

func (w *Worker) Join(a, b func(w *Worker)) { a(w); b(w) }
