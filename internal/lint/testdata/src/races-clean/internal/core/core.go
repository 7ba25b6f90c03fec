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

type Counter struct{ row []int32 }

func (c Counter) Add(k int) { c.row[k]++ }

type Cursor struct{ row []int32 }

func (c Cursor) Next(k int) int32 {
	at := c.row[k]
	c.row[k] = at + 1
	return at
}

type CountSortBody interface {
	CountRange(c Counter, lo, hi int)
	PlaceRange(c Cursor, lo, hi int)
}

func CountSort[B any, P interface {
	*B
	CountSortBody
}](w *Worker, n, k int, starts []int32, body B) {
	row := make([]int32, k)
	P(&body).CountRange(Counter{row}, 0, n)
	P(&body).PlaceRange(Cursor{row}, 0, n)
}
