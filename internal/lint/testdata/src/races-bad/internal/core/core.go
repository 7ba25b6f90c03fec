// Package core is a type-checkable stand-in for the real substrate,
// mirroring the alias layout (core.Worker = sched.Worker) the races
// pass resolves against.
package core

import "fixture/internal/sched"

type Worker = sched.Worker

func Run(f func(w *Worker)) { f(&Worker{}) }

func ForRange(w *Worker, lo, hi, grain int, f func(i int)) {
	for i := lo; i < hi; i++ {
		f(i)
	}
}

func ForBlocks(w *Worker, lo, hi, grain int, f func(lo, hi int)) {
	if lo < hi {
		f(lo, hi)
	}
}

func ForEachIdx[T any](w *Worker, xs []T, grain int, f func(i int, x *T)) {
	for i := range xs {
		f(i, &xs[i])
	}
}
