package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/sched"
)

// Extension patterns. The paper's Sec 7.1 inventories the parallel
// patterns of McCool et al. and finds eight absent from RPB — pipeline,
// futures, speculative selection, and others — leaving them to future
// work. This file implements the two most broadly useful of those on
// top of the same scheduler, with the same fear-level discipline:
// Pipeline stages receive each item exclusively (Fearless by
// construction), and Future transfers ownership of its result to the
// single Wait-er.

// TaskPanic re-exports the scheduler's wrapped-panic type: panics that
// escape pool tasks re-raise as *TaskPanic at their fork/join point.
type TaskPanic = sched.TaskPanic

// Future is a one-shot asynchronous computation scheduled on the pool:
// the non-strict fork-join shape (paper Sec 6) where a task may be
// joined by any task, not just its parent. Create with Async, claim
// with Wait.
type Future[T any] struct {
	done   atomic.Bool
	result T
	failed atomic.Pointer[TaskPanic]
}

// Async schedules f on w's pool and returns a Future for its result.
func Async[T any](w *Worker, f func(w *Worker) T) *Future[T] {
	countDyn(DC)
	fut := &Future[T]{}
	body := func(w2 *Worker) {
		defer fut.done.Store(true)
		defer func() {
			if r := recover(); r != nil {
				if tp, ok := r.(*TaskPanic); ok {
					fut.failed.Store(tp)
					return
				}
				fut.failed.Store(&TaskPanic{Value: r})
			}
		}()
		fut.result = f(w2) //lint:scared single-writer future: only this task writes result, and Wait's done.Load acquire-orders the read after it
	}
	if w == nil {
		body(nil)
		return fut
	}
	w.SpawnTask(body)
	return fut
}

// Wait blocks until the future completes, helping the pool with other
// work in the meantime (as Join does), and returns the result. Any
// worker may Wait, not only the spawner; callers must ensure a single
// consumer of the result or treat it as shared immutable data after.
// If the future's computation panicked, Wait re-raises the *TaskPanic.
func (f *Future[T]) Wait(w *Worker) T {
	if w == nil {
		for !f.done.Load() {
			yield()
		}
	} else {
		w.HelpUntil(func() bool { return f.done.Load() })
	}
	if tp := f.failed.Load(); tp != nil {
		panic(tp)
	}
	return f.result
}

// Pipeline runs a linear chain of stages over n sequence indices, with
// stage s processing item i strictly after stage s-1 processed item i
// and after stage s processed item i-1 (the classic pipeline pattern,
// absent from RPB per the paper's Sec 7.1). Each (stage, item) cell
// therefore executes exactly once with exclusive access to its item,
// making the construction Fearless. Parallelism comes from the
// anti-diagonal wavefront.
//
// stages[s] is invoked as stages[s](i) for each item index i.
func Pipeline(w *Worker, n int, stages []func(i int)) {
	countDyn(DC)
	if n <= 0 || len(stages) == 0 {
		return
	}
	if w == nil {
		for _, st := range stages {
			for i := 0; i < n; i++ {
				st(i)
			}
		}
		return
	}
	// progress[s] = number of items stage s has completed.
	progress := make([]atomic.Int64, len(stages))
	// One long-lived task per stage, each spin-waiting (yielding) for
	// its predecessor to stay ahead. Stages must NOT help-execute pool
	// tasks while waiting: a stage could then run its own successor
	// nested on its stack and deadlock against itself. Spinning is safe
	// because a stage's predecessor has always already started (the fork
	// order below guarantees it) and keeps running on its own worker.
	var run func(w *Worker, s int)
	run = func(w *Worker, s int) {
		for i := 0; i < n; i++ {
			for s > 0 && progress[s-1].Load() <= int64(i) {
				yield()
			}
			stages[s](i)
			progress[s].Add(1)
		}
	}
	// Fork stages as a right-leaning join tree so stage tasks can steal
	// each other's stalls away.
	var fork func(w *Worker, s int)
	fork = func(w *Worker, s int) {
		if s == len(stages)-1 {
			run(w, s)
			return
		}
		w.Join(
			func(w *Worker) { run(w, s) },
			func(w *Worker) { fork(w, s+1) },
		)
	}
	fork(w, 0)
}

// yield cedes the processor to other goroutines during pipeline spins.
func yield() { runtime.Gosched() }
