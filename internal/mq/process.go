package mq

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pusher hands tasks back to the scheduler from inside a running task.
type Pusher interface {
	Push(it Item)
}

// workerCtx routes a worker's pushes through its sticky handle while
// keeping the in-flight accounting exact.
type workerCtx struct {
	p        *Popper
	inFlight *atomic.Int64
}

func (c *workerCtx) Push(it Item) {
	c.inFlight.Add(1)
	c.p.Push(it)
}

// Process drives the MultiQueue with nWorkers long-running worker
// goroutines, the execution model of the paper's bfs and sssp: each
// worker repeatedly pops a task and executes it (potentially pushing
// new tasks) until the queue is globally empty.
//
// Termination uses an in-flight counter: it counts tasks that have been
// pushed but whose execution has not finished. Workers that observe an
// empty queue spin (yielding) until either work appears or the counter
// reaches zero, at which point no task exists and none can be created —
// the loop exits everywhere.
func Process(nWorkers int, seeds []Item, task func(workerID int, it Item, push Pusher)) {
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	ProcessOpt(nWorkers, seeds, Options{}, task)
}

// processWith runs the worker loops over an existing queue and returns
// its operation counters.
func processWith(m *MultiQueue, nWorkers int, seeds []Item, stickiness int, task func(workerID int, it Item, push Pusher)) Stats {
	var inFlight atomic.Int64
	for _, s := range seeds {
		inFlight.Add(1)
		m.Push(s)
	}
	var wg sync.WaitGroup
	wg.Add(nWorkers)
	for wid := 0; wid < nWorkers; wid++ {
		go func(wid int) {
			defer wg.Done()
			pop := m.NewPopper(stickiness)
			defer pop.FlushStats()
			ctx := &workerCtx{p: pop, inFlight: &inFlight}
			idle := 0
			for {
				it, ok := pop.Pop()
				if !ok {
					if inFlight.Load() == 0 {
						return
					}
					idle++
					if idle > 16 {
						runtime.Gosched()
					}
					continue
				}
				idle = 0
				task(wid, it, ctx)
				inFlight.Add(-1)
			}
		}(wid)
	}
	wg.Wait()
	return m.Stats()
}

// batchCtx is the Pusher handed to ProcessBatch tasks: pushes land in a
// per-worker staging buffer (fixed capacity = BatchSize) and reach the
// shared queue in batches — one lock acquisition per flush instead of
// one per task.
//
// In-flight accounting: staged items are invisible to the global
// counter until flush, which is safe because the worker only decrements
// the counter for the popped batch *after* flushing everything those
// tasks staged. A worker observing inFlight==0 therefore proves no task
// is running, queued, or staged anywhere.
type batchCtx struct {
	p        *Popper
	inFlight *atomic.Int64
	buf      []Item // staged pushes; cap == max, len(buf) < max between calls
	max      int
}

func (c *batchCtx) Push(it Item) {
	c.buf = append(c.buf, it)
	if len(c.buf) >= c.max {
		c.flush()
	}
}

func (c *batchCtx) flush() {
	if len(c.buf) == 0 {
		return
	}
	c.inFlight.Add(int64(len(c.buf)))
	c.p.PushBatch(c.buf)
	c.buf = c.buf[:0]
}

// batchWorker is one ProcessBatch worker's state: its sticky handle, the
// pop batch and the push staging buffer. The queue keeps one per worker
// id, each its own allocation, and a driver run again on the same queue
// finds them ready.
type batchWorker struct {
	pop   Popper
	ctx   batchCtx
	batch []Item
}

// ProcessBatch is the batched form of ProcessOpt: each worker pops up
// to opt.BatchSize items per lock acquisition, runs them back to back,
// and stages their pushes in a buffer flushed in batches.
// The relaxed-priority contract weakens accordingly — a popped batch is
// processed in order, but its tail may rank behind items surfacing
// elsewhere meanwhile — which is exactly the relaxation the bfs/sssp
// kernels already tolerate (docs/GRAPH.md). Returns the queue's
// operation counters.
func ProcessBatch(nWorkers int, seeds []Item, opt Options, task func(workerID int, it Item, push Pusher)) Stats {
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	opt.fill()
	return ProcessBatchOn(New(opt.QueueFactor*nWorkers), nWorkers, seeds, opt, task)
}

// ProcessBatchOn is ProcessBatch over a queue the caller keeps: a
// kernel that drives one queue many times over (k-core, once per level)
// pays for the queue, its heaps' capacity and the per-worker buffers
// once. m must be empty and idle — a finished driver leaves it so, and
// Reset makes it so. opt.QueueFactor does not apply. The counters
// returned are the queue's, so they accumulate over every drive since
// New or the last Reset.
func ProcessBatchOn(m *MultiQueue, nWorkers int, seeds []Item, opt Options, task func(workerID int, it Item, push Pusher)) Stats {
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	opt.fill()
	for len(m.workers) < nWorkers {
		m.workers = append(m.workers, new(batchWorker))
	}
	if len(seeds) > 0 {
		m.inFlight.Add(int64(len(seeds)))
		m.PushBatch(seeds)
	}
	m.wg.Add(nWorkers)
	for wid := 0; wid < nWorkers; wid++ {
		go m.batchLoop(wid, opt, task)
	}
	m.wg.Wait()
	return m.Stats()
}

// batchLoop is one ProcessBatch worker: pop a batch, run it, flush what
// it staged, until no task is queued, staged or running anywhere.
func (m *MultiQueue) batchLoop(wid int, opt Options, task func(workerID int, it Item, push Pusher)) {
	defer m.wg.Done()
	w := m.workers[wid]
	if cap(w.batch) != opt.BatchSize {
		w.batch = make([]Item, opt.BatchSize)
		w.ctx.buf = make([]Item, 0, opt.BatchSize)
	}
	w.pop = Popper{m: m, stick: opt.Stickiness}
	w.ctx.p, w.ctx.inFlight, w.ctx.max = &w.pop, &m.inFlight, opt.BatchSize
	defer w.pop.FlushStats()
	idle := 0
	for {
		n := w.pop.PopBatch(w.batch)
		if n == 0 {
			if m.inFlight.Load() == 0 {
				return
			}
			idle++
			if idle > 16 {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		for i := 0; i < n; i++ {
			task(wid, w.batch[i], &w.ctx)
		}
		w.ctx.flush()
		m.inFlight.Add(-int64(n))
	}
}
