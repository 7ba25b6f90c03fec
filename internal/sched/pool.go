// Package sched implements a Cilk/Rayon-style work-stealing scheduler:
// a fixed pool of worker goroutines, each owning a Chase-Lev deque, with
// random stealing, an overflow injector queue, and help-first joins.
//
// The fast path is demand-driven (see docs/SCHED.md): For runs ranges
// sequentially and splits only on observed demand, Join reuses per-worker
// stack-discipline join frames instead of allocating, and Spawn skips the
// pool mutex entirely when no worker is parked.
//
// This is the runtime substrate under the parallel-patterns library in
// internal/core, playing the role Rayon's thread pool plays in the paper.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is a unit of work executed by a pool worker. The worker executing
// the task is passed in so the task can spawn and join subtasks.
type Task func(w *Worker)

// Pool is a work-stealing pool of worker goroutines.
type Pool struct {
	workers []*Worker

	mu       sync.Mutex
	injector []*Task // overflow + external-submission queue (LIFO)
	parked   []*Worker
	closed   bool

	// ninject mirrors len(injector) so idle probes and parking re-checks
	// can observe queued external work without taking the mutex.
	_       [64]byte
	ninject atomic.Int64
	// nparked mirrors len(parked). Publishers (Spawn, inject) read it to
	// skip the wake path when nobody is parked — the contention-free
	// wakeup fast path — so it lives on its own cache line.
	_       [56]byte
	nparked atomic.Int32
	_       [60]byte
}

// Worker is a single pool worker. Worker methods (Spawn, Join, For) may
// be called only from code running on this worker.
type Worker struct {
	pool *Pool
	id   int
	rng  uint64
	park chan struct{}

	// Join-frame cache: frames[d] is the reusable frame for a Join at
	// nesting depth d on this worker. Joins nest in strict LIFO order,
	// so reuse by depth is safe and the steady-state Join allocates
	// nothing. Owner-only.
	frames    []*joinFrame
	joinDepth int

	// lastRaid is the deque raid count observed at the previous split
	// check; a change means a thief stole from us. Owner-only.
	lastRaid int64

	// scratch is an opaque per-worker scratch slot, reserved for
	// higher layers (internal/arena hangs its per-worker bump arena
	// and typed box stacks here). Owner-only.
	scratch any

	// forFrame cache: forFrames[d] is the reusable split frame for a
	// lazily split ForBody at nesting depth d on this worker (see
	// forbody.go). Like join frames, splits nest in strict LIFO order,
	// so reuse by depth is safe. Owner-only.
	forFrames []*forFrame
	forDepth  int

	// The deque is written by thieves (top, steals); keep it off the
	// cache lines holding the owner-only state above and the counters
	// below (the deque pads its own interior fields).
	_     [64]byte
	deque deque

	// Observability counters (atomic; owner-incremented, racily read).
	_          [64]byte
	nExecuted  atomic.Int64
	nStolen    atomic.Int64
	nParked    atomic.Int64
	nSplits    atomic.Int64
	nWakeSkips atomic.Int64
	nOverflows atomic.Int64
}

// WorkerStats is a snapshot of one worker's activity counters.
type WorkerStats struct {
	Executed      int64 // tasks this worker ran
	Stolen        int64 // tasks it obtained by stealing from a victim
	Parked        int64 // times it went to sleep for lack of work
	SplitsSpawned int64 // For halves it spawned via lazy splitting
	WakeSkips     int64 // Spawns that skipped the wake path (nobody parked)
	Overflows     int64 // Spawns routed to the injector on a full deque
}

// Stats returns a racy snapshot of per-worker activity since the pool
// started — the observability hook behind the scheduler ablations.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		out[i] = WorkerStats{
			Executed:      w.nExecuted.Load(),
			Stolen:        w.nStolen.Load(),
			Parked:        w.nParked.Load(),
			SplitsSpawned: w.nSplits.Load(),
			WakeSkips:     w.nWakeSkips.Load(),
			Overflows:     w.nOverflows.Load(),
		}
	}
	return out
}

// NewPool starts a pool with n workers. If n <= 0, GOMAXPROCS workers are
// started. The pool runs until Close is called.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.workers = make([]*Worker, n)
	for i := range p.workers {
		w := &Worker{
			pool: p,
			id:   i,
			rng:  splitmix64(uint64(i+1) * 0x9e3779b97f4a7c15),
			park: make(chan struct{}, 1),
		}
		p.workers[i] = w
	}
	for _, w := range p.workers {
		go w.run()
	}
	return p
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return len(p.workers) }

// Close shuts the pool down. Tasks still queued are dropped; callers must
// ensure all Do calls have returned before closing.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	parked := p.parked
	p.parked = nil
	p.nparked.Store(0)
	p.mu.Unlock()
	for _, w := range parked {
		select {
		case w.park <- struct{}{}:
		default:
		}
	}
}

// Do runs f on some pool worker and waits for it (and only it) to return.
// Do must be called from outside the pool; pool tasks that need nested
// parallelism should use Worker.Join or Worker.For instead. A panic in
// f (or in a joined subtask) is re-raised from Do as a *TaskPanic.
func (p *Pool) Do(f func(w *Worker)) {
	done := make(chan *TaskPanic, 1)
	t := Task(func(w *Worker) {
		done <- capture(f, w)
	})
	p.inject(&t)
	if tp := <-done; tp != nil {
		panic(tp)
	}
}

// inject adds a task to the global queue and wakes a parked worker.
func (p *Pool) inject(t *Task) {
	p.pushInjector(t)
	p.wakeOne()
}

// pushInjector appends t to the global queue. It is the single audited
// path for every task that bypasses a worker deque: external submissions
// (Do) and deque-overflow spills from Worker.Spawn both land here. The
// ninject bump must happen before the caller consults nparked, pairing
// with the announce-then-recheck order in parkUntilWork.
func (p *Pool) pushInjector(t *Task) {
	p.mu.Lock()
	p.injector = append(p.injector, t)
	p.ninject.Add(1)
	p.mu.Unlock()
}

// popInjector removes a task from the global queue, or returns nil.
func (p *Pool) popInjector() *Task {
	if p.ninject.Load() == 0 {
		return nil
	}
	p.mu.Lock()
	var t *Task
	if n := len(p.injector); n > 0 {
		t = p.injector[n-1]
		p.injector[n-1] = nil
		p.injector = p.injector[:n-1]
		p.ninject.Add(-1)
	}
	p.mu.Unlock()
	return t
}

// wakeOne unparks a single parked worker, if any, and reports whether it
// woke one. When nparked reads zero — the common case on the fork-join
// fast path — it returns without touching the pool mutex. Callers must
// publish their work (deque push or pushInjector) before calling, so the
// publish/read-nparked order here pairs with the announce/re-check order
// in parkUntilWork: one side always observes the other.
func (p *Pool) wakeOne() bool {
	if p.nparked.Load() == 0 {
		return false
	}
	p.mu.Lock()
	var w *Worker
	if n := len(p.parked); n > 0 {
		w = p.parked[n-1]
		p.parked = p.parked[:n-1]
		p.nparked.Add(-1)
	}
	p.mu.Unlock()
	if w == nil {
		return false
	}
	select {
	case w.park <- struct{}{}:
	default:
	}
	return true
}

// ID returns the worker's index in [0, Pool.Workers()). It is stable for
// the lifetime of the pool, making it usable for per-worker scratch space.
func (w *Worker) ID() int { return w.id }

// Pool returns the pool this worker belongs to.
func (w *Worker) Pool() *Pool { return w.pool }

// Scratch returns the worker's opaque scratch slot (nil until
// SetScratch). Owner-only: call it from code running on this worker.
func (w *Worker) Scratch() any { return w.scratch }

// SetScratch installs the worker's scratch slot, typically a lazily
// created per-worker arena. Owner-only.
func (w *Worker) SetScratch(s any) { w.scratch = s }

// Spawn schedules t to run asynchronously on the pool. The caller is
// responsible for tracking completion (Join does this automatically).
func (w *Worker) Spawn(t *Task) {
	if !w.deque.PushBottom(t) {
		// Deque full: spill to the global queue through the one audited
		// overflow path.
		w.nOverflows.Add(1)
		w.pool.pushInjector(t)
	}
	if !w.pool.wakeOne() {
		w.nWakeSkips.Add(1)
	}
}

// next finds the next task to run: own deque, then injector, then steal.
func (w *Worker) next() *Task {
	if t := w.deque.PopBottom(); t != nil {
		return t
	}
	if t := w.pool.popInjector(); t != nil {
		return t
	}
	return w.trySteal()
}

// trySteal attempts a few rounds of random-victim stealing.
func (w *Worker) trySteal() *Task {
	n := len(w.pool.workers)
	if n <= 1 {
		return nil
	}
	for round := 0; round < 2; round++ {
		start := int(w.nextRand() % uint64(n))
		for i := 0; i < n; i++ {
			v := w.pool.workers[(start+i)%n]
			if v == w {
				continue
			}
			if t := v.deque.Steal(); t != nil {
				w.nStolen.Add(1)
				return t
			}
		}
	}
	return nil
}

// workAvailable is the parking re-check: it reports whether any work is
// visible in the injector or another worker's deque. Called after the
// worker has announced itself parked (nparked incremented), so that a
// publisher that missed the announcement is observed here instead.
func (w *Worker) workAvailable() bool {
	p := w.pool
	if p.ninject.Load() > 0 {
		return true
	}
	for _, v := range p.workers {
		if v != w && !v.deque.Empty() {
			return true
		}
	}
	return false
}

// parkUntilWork parks the worker until a publisher wakes it. It returns
// false when the pool has been closed. The protocol is
// announce-then-recheck: the worker first joins the parked list (making
// nparked visible to publishers), then re-checks for work; publishers
// push work first and read nparked second. Under sequential consistency
// one of the two sides must observe the other, so no wakeup is lost even
// though publishers skip the mutex when nparked reads zero.
func (w *Worker) parkUntilWork() bool {
	p := w.pool
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.parked = append(p.parked, w)
	p.nparked.Add(1)
	p.mu.Unlock()

	if w.workAvailable() {
		// Retract the announcement and go look for that work.
		removed := false
		p.mu.Lock()
		for i, pw := range p.parked {
			if pw == w {
				p.parked = append(p.parked[:i], p.parked[i+1:]...)
				p.nparked.Add(-1)
				removed = true
				break
			}
		}
		closed := p.closed
		p.mu.Unlock()
		if removed {
			return !closed
		}
		// A waker already popped us; its signal is in flight (or
		// delivered). Consume it so it cannot go stale.
		<-w.park
		p.mu.Lock()
		closed = p.closed
		p.mu.Unlock()
		return !closed
	}

	w.nParked.Add(1)
	<-w.park
	// Wakers (wakeOne, Close) remove a worker from the parked list
	// before signaling it, so no list cleanup is needed here.
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	return !closed
}

// run is the worker main loop.
func (w *Worker) run() {
	idleSpins := 0
	for {
		t := w.next()
		if t != nil {
			idleSpins = 0
			w.nExecuted.Add(1)
			(*t)(w)
			continue
		}
		idleSpins++
		if idleSpins < 4 {
			runtime.Gosched()
			continue
		}
		idleSpins = 0
		if !w.parkUntilWork() {
			return
		}
	}
}

// nextRand returns the next value of the worker's xorshift RNG.
func (w *Worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// splitmix64 is used to seed worker RNGs with well-mixed values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// grainFor picks a default grain so a balanced recursive split produces
// roughly 8 tasks per worker, the Rayon heuristic. Under lazy splitting
// the grain doubles as the demand-check interval: an uncontended For
// re-examines the split hint once per grain-sized chunk.
func grainFor(n, workers int) int {
	if workers <= 0 {
		workers = 1
	}
	g := n / (workers * 8)
	if g < 1 {
		g = 1
	}
	return g
}
