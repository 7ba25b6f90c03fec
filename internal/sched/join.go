package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// TaskPanic wraps a panic that escaped a task running on the pool, so
// it can be re-raised at the fork point (Join, Do) instead of killing
// an arbitrary worker goroutine. Value is the original panic value and
// Stack the panicking task's stack.
type TaskPanic struct {
	Value any
	Stack string
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("sched: task panicked: %v", p.Value)
}

// capture runs f(w), converting a panic into a *TaskPanic. A nested
// *TaskPanic (already wrapped at an inner fork point) passes through
// unwrapped so the original site's stack survives.
func capture(f func(w *Worker), w *Worker) (tp *TaskPanic) {
	defer func() {
		if r := recover(); r != nil {
			if inner, ok := r.(*TaskPanic); ok {
				tp = inner
				return
			}
			tp = &TaskPanic{Value: r, Stack: string(debug.Stack())}
		}
	}()
	f(w)
	return nil
}

// Frame states for joinFrame.state.
const (
	framePending uint32 = iota
	frameDone
)

// joinFrame is the bookkeeping record for one Join: the stealable branch,
// a completion latch, and a panic slot in a single struct, plus a
// pre-built trampoline task bound to the frame. Frames live in a
// per-worker cache indexed by Join nesting depth — joins on one worker
// nest in strict LIFO order (a Join returns only after its branch
// completed, and any Join started while helping is strictly deeper) — so
// each depth's frame is reused across calls and the steady-state Join
// performs zero heap allocations on the unstolen path.
//
// Reuse is race-free because a frame is recycled only after its owner
// observed state == frameDone, which the (unique) executor stores last;
// a thief that read the frame's task pointer from a previous round can
// never win its top CAS once that round's task was claimed.
type joinFrame struct {
	fb    func(w *Worker) // branch offered to thieves; nil between Joins
	state atomic.Uint32   // framePending until fb has run
	tp    atomic.Pointer[TaskPanic]
	task  task // trampoline: runs fb via the frame; built once per frame
}

// run executes the frame's branch and flips the completion latch. It may
// run on any worker: the owner (unstolen fast path) or a thief.
func (f *joinFrame) run(w *Worker) {
	if tp := capture(f.fb, w); tp != nil {
		f.tp.Store(tp)
	}
	f.state.Store(frameDone)
}

// acquireFrame returns the reusable join frame for the worker's current
// nesting depth, growing the cache on first use of a new depth (the only
// allocation the Join path ever performs).
func (w *Worker) acquireFrame() *joinFrame {
	d := w.joinDepth
	w.joinDepth++
	if d == len(w.frames) {
		f := &joinFrame{}
		f.task = func(w2 *Worker) { f.run(w2) }
		w.frames = append(w.frames, f)
	}
	return w.frames[d]
}

// releaseFrame returns the current frame to the cache.
func (w *Worker) releaseFrame(f *joinFrame) {
	f.fb = nil // do not retain the branch closure between Joins
	w.joinDepth--
}

// Join runs fa and fb, potentially in parallel, and returns when both have
// completed. fb is made available for stealing while the current worker
// runs fa; if nobody stole it, the current worker runs it too. While
// waiting for a stolen fb, the worker helps by executing other pool tasks
// (help-first joining, as in Cilk and Rayon).
//
// The unstolen path — the overwhelmingly common case under lazy
// splitting — allocates nothing: the branch rides a cached join frame and
// comes straight back off the bottom of the deque.
//
// A panic in either branch is re-raised from Join as a *TaskPanic —
// after both branches have completed, preserving structured
// concurrency even on the failure path.
func (w *Worker) Join(fa, fb func(w *Worker)) {
	f := w.acquireFrame()
	f.fb = fb
	f.tp.Store(nil)
	f.state.Store(framePending)
	w.spawn(&f.task)
	faPanic := capture(fa, w)
	w.waitFrame(f)
	fbPanic := f.tp.Load()
	w.releaseFrame(f)
	if faPanic != nil {
		panic(faPanic)
	}
	if fbPanic != nil {
		panic(fbPanic)
	}
}

// waitFrame is Join's help-first waiting discipline, shared with the
// allocation-free ForBody split (forbody.go): run pool work until f's
// branch has completed.
func (w *Worker) waitFrame(f *joinFrame) {
	for f.state.Load() != frameDone {
		// Fast path: the task we spawned is still at the bottom of our
		// deque if the branch spawned and joined in strict stack order.
		if local := w.deque.PopBottom(); local != nil {
			w.nExecuted.Add(1)
			(*local)(w)
			continue
		}
		// Our deque is empty; the spawned branch was stolen (or routed
		// to the injector). Help with any available work while waiting.
		other := w.pool.popInjector()
		if other == nil {
			other = w.trySteal()
		}
		if other != nil {
			w.nExecuted.Add(1)
			(*other)(w)
			continue
		}
		runtime.Gosched()
	}
}
