package mq

import (
	"runtime"

	"repro/internal/sched"
)

// Pusher hands tasks back to the scheduler from inside a running task.
type Pusher interface {
	Push(it Item)
}

// Options configures the drivers.
type Options struct {
	// BatchSize bounds the items moved per locked queue operation (pop
	// batches and the per-slot push staging buffer); default 64. At 1
	// the driver is the classic single-item MultiQueue (see Process).
	BatchSize int
}

func (o Options) batchSize() int {
	if o.BatchSize < 1 {
		return 64
	}
	return o.BatchSize
}

// batchCtx is one slot's state and the Pusher handed to its tasks:
// pushes land in a staging buffer (fixed capacity = BatchSize) and reach
// the shared queue in batches — one lock acquisition per flush instead
// of one per task — and the slot's operation counters stay local until
// its loop exits. The queue keeps one per slot, each its own
// allocation, and a driver run again on the same queue finds them ready.
//
// In-flight accounting: staged items are invisible to the global
// counter until flush, which is safe because the slot only decrements
// the counter for the popped batch *after* flushing everything those
// tasks staged. A slot observing inFlight==0 therefore proves no task
// is running, queued, or staged anywhere.
type batchCtx struct {
	m     *MultiQueue
	st    Stats  // local counters, folded into m.stats at loop exit
	batch []Item // popped tasks; len == BatchSize
	buf   []Item // staged pushes; cap == BatchSize, never full between calls
}

func (c *batchCtx) Push(it Item) {
	c.buf = append(c.buf, it)
	if len(c.buf) == cap(c.buf) {
		c.flush()
	}
}

func (c *batchCtx) flush() {
	if len(c.buf) == 0 {
		return
	}
	c.m.inFlight.Add(int64(len(c.buf)))
	c.m.pushBatchInto(&c.st, c.buf)
	c.buf = c.buf[:0]
}

// foldStats moves the slot's local counters into the queue's.
func (c *batchCtx) foldStats() {
	c.m.stats.add(c.st)
	c.st = Stats{}
}

// Process is the execution model of the paper's bfs and sssp, the
// classic MultiQueue discipline: ProcessBatch at BatchSize 1, where a
// pushed task is staged and flushed at once and a pop takes one task —
// two lock acquisitions per executed task.
func Process(nWorkers int, seeds []Item, task func(slot int, it Item, push Pusher)) Stats {
	return ProcessBatch(nWorkers, seeds, Options{BatchSize: 1}, task)
}

// ProcessBatch is the adapter for callers that hold no worker: it starts
// a pool of nWorkers workers (sched.NewPool's default when nWorkers <= 0),
// drives a fresh queue on it with ProcessBatchOn, and closes the pool.
func ProcessBatch(nWorkers int, seeds []Item, opt Options, task func(slot int, it Item, push Pusher)) (st Stats) {
	p := sched.NewPool(nWorkers)
	defer p.Close()
	p.Do(func(w *sched.Worker) { st = ProcessBatchOn(w, New(0), seeds, opt, task) })
	return st
}

// ProcessBatchOn drives m on the workers of w's pool, or on the caller
// alone when w is nil. The drive has one slot per pool worker, each a
// loop that repeatedly pops up to opt.BatchSize tasks per lock
// acquisition and runs them back to back — tasks may push new tasks,
// staged and flushed in batches — until the queue is globally empty. A
// task gets its slot id, in [0, w.Pool().Workers()), and one slot runs
// on one worker at a time, so per-slot scratch needs no lock. The
// relaxed-priority contract weakens with the batch size — a popped batch
// is processed in order, but its tail may rank behind items surfacing
// elsewhere meanwhile — which is exactly the relaxation the bfs/sssp
// kernels already tolerate (docs/GRAPH.md).
//
// The slots run as a Join tree (drive), so the scheduler spreads them
// the way it spreads any fork: the caller runs slot 0, and a spinning
// thief or a woken parked worker picks up each other one. Termination
// uses an in-flight counter: it counts tasks that have been pushed but
// whose execution has not finished. Slots that observe an empty queue
// spin (yielding) until either work appears or the counter reaches
// zero, at which point no task exists and none can be created — the
// loop exits everywhere, and a slot that starts only after that returns
// at once. A task that panics aborts the drive: the other slots stop,
// and the panic is re-raised from Join (and from Pool.Do) as a
// *sched.TaskPanic. An aborted queue is left dirty; Reset cleans it.
//
// The caller keeps m: a kernel that drives one queue many times over
// (k-core, once per level) pays for the queue, its heaps' capacity and
// the per-slot buffers once. The drive sizes m to queuesPerWorker
// queues per slot. m must be empty and idle — a finished driver leaves
// it so, and Reset makes it so. The counters returned are the queue's,
// so they accumulate over every drive since New or the last Reset.
func ProcessBatchOn(w *sched.Worker, m *MultiQueue, seeds []Item, opt Options, task func(slot int, it Item, push Pusher)) Stats {
	slots := 1
	if w != nil {
		slots = w.Pool().Workers()
	}
	if n := queuesPerWorker * slots; len(m.queues) != n {
		m.setQueues(n)
	}
	for len(m.slots) < slots {
		m.slots = append(m.slots, &batchCtx{m: m})
	}
	if len(seeds) > 0 {
		m.inFlight.Add(int64(len(seeds)))
		m.PushBatch(seeds)
	}
	m.drive(w, 0, slots, opt.batchSize(), task)
	return m.Stats()
}

// drive runs slots [lo, hi) of one drive as a balanced Join tree.
//
//lint:scared implementing the MultiQueue is Scared work (Observation 6): the Join branches share m, but only through its mutex-guarded queues, its atomics and one batchCtx per slot, which one slot loop owns; TestProcessBatchOnReusesQueue, TestProcessBatchOnStartsNoGoroutines and TestProcessBatchOnTaskPanic drive it under -race
func (m *MultiQueue) drive(w *sched.Worker, lo, hi, batchSize int, task func(slot int, it Item, push Pusher)) {
	if hi-lo == 1 {
		m.batchLoop(lo, batchSize, task)
		return
	}
	mid := (lo + hi) / 2
	w.Join(func(w *sched.Worker) { m.drive(w, lo, mid, batchSize, task) },
		func(w *sched.Worker) { m.drive(w, mid, hi, batchSize, task) })
}

// batchLoop is the one slot loop: pop a batch, run it, flush what it
// staged, until no task is queued, staged or running anywhere, or a
// task panicked in some slot.
func (m *MultiQueue) batchLoop(slot, batchSize int, task func(slot int, it Item, push Pusher)) {
	c := m.slots[slot]
	if len(c.batch) != batchSize {
		c.batch = make([]Item, batchSize)
		c.buf = make([]Item, 0, batchSize)
	}
	// A task's panic skips finished = true: the deferred call flags the
	// abort without recovering, so the panic and its stack go on to Join.
	finished := false
	defer func() {
		if !finished {
			m.aborted.Store(true)
		}
		c.foldStats()
	}()
	idle := 0
	for !m.aborted.Load() {
		n := m.popBatchInto(&c.st, c.batch)
		if n == 0 {
			if m.inFlight.Load() == 0 {
				break
			}
			idle++
			if idle > 16 {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		for i := 0; i < n; i++ {
			task(slot, c.batch[i], c)
		}
		c.flush()
		m.inFlight.Add(-int64(n))
	}
	finished = true
}
