package sched

import "runtime/debug"

// This file holds the demand-driven parallel loop's one split engine,
// in its allocation-free form. A body passed as a closure (For, for.go)
// is heap-allocated by Go at every call site: the split path stores the
// body in a stealable frame, so escape analysis pins the closure to the
// heap. That fixed cost is invisible under a kernel that allocates O(n)
// scratch, but it is exactly what stands between the scan/pack hot
// paths and 0 allocs/op once their scratch comes from per-worker arenas.
//
// ForBody removes it by taking the body as an interface. Callers keep
// the body state in a reusable per-worker box (internal/arena's box
// stacks), so the interface value is a pointer into already-live
// memory and the call allocates nothing; the split path reuses cached
// forFrames the same way Join reuses its join frames. The steady-state
// ForBody — split or not — performs zero heap allocations.

// RangeBody is a parallel loop body in object form: RunRange is invoked
// over disjoint subranges of [lo, hi), possibly concurrently on
// different workers, and must be safe under that concurrency. It is the
// allocation-free analog of For's body closure.
type RangeBody interface {
	RunRange(w *Worker, lo, hi int)
}

// ForBody executes body.RunRange over [lo, hi) with lazy demand-driven
// splitting (for.go says why) and without allocating: the body travels
// as an interface value and splits ride reusable per-worker frames.
// grain <= 0 selects the automatic grain. Subranges passed to RunRange
// are at most grain elements.
func (w *Worker) ForBody(lo, hi, grain int, body RangeBody) {
	if hi <= lo {
		return
	}
	if grain <= 0 {
		grain = grainFor(hi-lo, w.pool.Workers())
	}
	w.forBodyAdaptive(lo, hi, grain, body)
}

// forBodyAdaptive is the lazy splitter: between grain-sized sequential
// chunks it consults shouldSplit, and on demand forks the remaining
// range's upper half through a cached frame pair. Each stolen half
// re-enters forBodyAdaptive on the thief, so subdivision recursively
// tracks the number of idle workers.
func (w *Worker) forBodyAdaptive(lo, hi, grain int, body RangeBody) {
	for hi-lo > grain {
		if w.shouldSplit() {
			w.nSplits.Add(1)
			w.forBodySplit(lo, lo+(hi-lo)/2, hi, grain, body)
			return
		}
		next := lo + grain
		body.RunRange(w, lo, next)
		lo = next
	}
	if hi > lo {
		body.RunRange(w, lo, hi)
	}
}

// forFrame is the stealable record for one lazy split of a ForBody: the
// upper half's range and body, plus a trampoline closure bound to the
// frame once at construction. Frames live in a per-worker cache indexed
// by split nesting depth — splits nest in strict LIFO order (the split
// returns only after both halves completed, and any split entered while
// helping is strictly deeper) — so the steady-state split allocates
// nothing.
//
// Reuse is race-free for the same reason join frames are: a thief
// executing fn reads the frame's fields before it flips the paired join
// frame's completion latch, and the owner recycles the frame only after
// observing that latch.
type forFrame struct {
	lo, hi, grain int
	body          RangeBody
	fn            func(w *Worker) // runs the upper half via the frame
}

// acquireForFrame returns the reusable split frame for the worker's
// current split depth, growing the cache on first use of a new depth
// (the only allocation the ForBody path ever performs).
func (w *Worker) acquireForFrame() *forFrame {
	d := w.forDepth
	w.forDepth++
	if d == len(w.forFrames) {
		fr := &forFrame{}
		fr.fn = func(w2 *Worker) { w2.forBodyAdaptive(fr.lo, fr.hi, fr.grain, fr.body) }
		w.forFrames = append(w.forFrames, fr)
	}
	return w.forFrames[d]
}

// releaseForFrame returns the current split frame to the cache.
func (w *Worker) releaseForFrame(fr *forFrame) {
	fr.body = nil // do not retain the body between splits
	w.forDepth--
}

// forBodySplit is the split step: offer [mid, hi) for stealing through
// a cached forFrame + joinFrame pair, run [lo, mid) inline, then wait
// with Join's help-first discipline. Structured like Join but with
// method recursion in place of branch closures, so the path allocates
// nothing.
func (w *Worker) forBodySplit(lo, mid, hi, grain int, body RangeBody) {
	fr := w.acquireForFrame()
	fr.lo, fr.hi, fr.grain, fr.body = mid, hi, grain, body
	jf := w.acquireFrame()
	jf.fb = fr.fn
	jf.tp.Store(nil)
	jf.state.Store(framePending)
	w.spawn(&jf.task)
	leftPanic := w.forBodyLeft(lo, mid, grain, body)
	w.waitFrame(jf)
	rightPanic := jf.tp.Load()
	w.releaseFrame(jf)
	w.releaseForFrame(fr)
	if leftPanic != nil {
		panic(leftPanic)
	}
	if rightPanic != nil {
		panic(rightPanic)
	}
}

// forBodyLeft runs the lower half, converting a panic into a *TaskPanic
// exactly like capture does — as a method, so the non-panicking path
// builds no closure.
func (w *Worker) forBodyLeft(lo, hi, grain int, body RangeBody) (tp *TaskPanic) {
	defer func() {
		if r := recover(); r != nil {
			if inner, ok := r.(*TaskPanic); ok {
				tp = inner
				return
			}
			tp = &TaskPanic{Value: r, Stack: string(debug.Stack())}
		}
	}()
	w.forBodyAdaptive(lo, hi, grain, body)
	return nil
}
