package sched

// This file holds the closure form of the demand-driven parallel loop
// and the demand hint behind it. The paper's Fig 4/6 claim — a pattern
// library costing ≈1x over hand-rolled code at one thread — rests on the
// scheduler's uncontended path being near-free, so loops split lazily,
// Rayon-style: run the range as a sequential chunk loop and carve off
// the upper half only when a demand signal (a parked worker, or a thief
// raiding this worker's deque) indicates idle capacity. An uncontended
// loop therefore executes O(steals) tasks instead of the O(n/grain) an
// eager splitter creates. The splitter itself is forBodyAdaptive
// (forbody.go), the one split engine; For is an adapter onto it.

// rangeFunc adapts a loop-body closure to RangeBody. A func value is
// pointer-shaped, so the interface conversion allocates nothing beyond
// the closure the caller already built.
type rangeFunc func(w *Worker, lo, hi int)

func (f rangeFunc) RunRange(w *Worker, lo, hi int) { f(w, lo, hi) }

// For executes body over [lo, hi), lazily splitting off stealable
// subranges while idle workers exist, and running grain-sized chunks
// sequentially otherwise: ForBody with a closure for a body. Ranges
// passed to body are at most grain elements. grain <= 0 selects an
// automatic grain (about 8 tasks per worker under full subdivision).
// body may be invoked concurrently on disjoint subranges and must be
// safe under that concurrency. A nil w runs body(nil, lo, hi) inline,
// the sequential contract every core primitive has.
func (w *Worker) For(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	if hi <= lo {
		return
	}
	if w == nil {
		body(nil, lo, hi)
		return
	}
	w.ForBody(lo, hi, grain, rangeFunc(body))
}

// shouldSplit is the demand hint behind lazy splitting: split when idle
// capacity is observable — some worker is parked, or this worker's deque
// was raided since the last check (a thief is actively looking for our
// work). On a single-worker pool it is constant false, so a 1-worker For
// is a plain sequential loop.
func (w *Worker) shouldSplit() bool {
	p := w.pool
	if len(p.workers) <= 1 {
		return false
	}
	if p.nparked.Load() > 0 {
		return true
	}
	if s := w.deque.Raids(); s != w.lastRaid {
		w.lastRaid = s
		return true
	}
	return false
}

// ForEachWorker runs body once per pool worker, in parallel, passing each
// invocation its worker. It is useful for initializing or reducing
// per-worker scratch state. Invocations are not guaranteed to land on
// distinct workers; bodies needing per-worker effects should key off
// w.ID().
func (w *Worker) ForEachWorker(body func(w *Worker)) {
	n := w.pool.Workers()
	w.For(0, n, 1, func(w *Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(w)
		}
	})
}
