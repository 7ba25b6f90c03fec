package mq

import "runtime"

// Pusher hands tasks back to the scheduler from inside a running task.
type Pusher interface {
	Push(it Item)
}

// Options configures the drivers.
type Options struct {
	// BatchSize bounds the items moved per locked queue operation (pop
	// batches and the per-worker push staging buffer); default 64. At 1
	// the driver is the classic single-item MultiQueue (see Process).
	BatchSize int
}

func (o Options) batchSize() int {
	if o.BatchSize < 1 {
		return 64
	}
	return o.BatchSize
}

// workerCount is the drivers' one rule for nWorkers <= 0 (see
// ProcessBatchOn).
func workerCount(nWorkers int) int {
	if nWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return nWorkers
}

// batchCtx is one worker's state and the Pusher handed to its tasks:
// pushes land in a staging buffer (fixed capacity = BatchSize) and reach
// the shared queue in batches — one lock acquisition per flush instead
// of one per task — and the worker's operation counters stay local until
// its loop exits. The queue keeps one per worker id, each its own
// allocation, and a driver run again on the same queue finds them ready.
//
// In-flight accounting: staged items are invisible to the global
// counter until flush, which is safe because the worker only decrements
// the counter for the popped batch *after* flushing everything those
// tasks staged. A worker observing inFlight==0 therefore proves no task
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

// foldStats moves the worker's local counters into the queue's.
func (c *batchCtx) foldStats() {
	c.m.stats.add(c.st)
	c.st = Stats{}
}

// Process is the execution model of the paper's bfs and sssp, the
// classic MultiQueue discipline: ProcessBatch at BatchSize 1, where a
// pushed task is staged and flushed at once and a pop takes one task —
// two lock acquisitions per executed task.
func Process(nWorkers int, seeds []Item, task func(workerID int, it Item, push Pusher)) Stats {
	return ProcessBatch(nWorkers, seeds, Options{BatchSize: 1}, task)
}

// ProcessBatch drives a fresh queue of QueuesPerWorker queues per worker
// with ProcessBatchOn.
func ProcessBatch(nWorkers int, seeds []Item, opt Options, task func(workerID int, it Item, push Pusher)) Stats {
	nWorkers = workerCount(nWorkers)
	return ProcessBatchOn(New(QueuesPerWorker*nWorkers), nWorkers, seeds, opt, task)
}

// ProcessBatchOn drives m with nWorkers long-running worker goroutines
// (GOMAXPROCS of them when nWorkers <= 0): each repeatedly pops up to
// opt.BatchSize tasks per lock acquisition, runs them back to back —
// tasks may push new tasks, staged and flushed in batches — until the
// queue is globally empty. The relaxed-priority contract weakens with
// the batch size — a popped batch is processed in order, but its tail
// may rank behind items surfacing elsewhere meanwhile — which is exactly
// the relaxation the bfs/sssp kernels already tolerate (docs/GRAPH.md).
//
// Termination uses an in-flight counter: it counts tasks that have been
// pushed but whose execution has not finished. Workers that observe an
// empty queue spin (yielding) until either work appears or the counter
// reaches zero, at which point no task exists and none can be created —
// the loop exits everywhere.
//
// The caller keeps m: a kernel that drives one queue many times over
// (k-core, once per level) pays for the queue, its heaps' capacity and
// the per-worker buffers once. m must be empty and idle — a finished
// driver leaves it so, and Reset makes it so. The counters returned are
// the queue's, so they accumulate over every drive since New or the last
// Reset.
func ProcessBatchOn(m *MultiQueue, nWorkers int, seeds []Item, opt Options, task func(workerID int, it Item, push Pusher)) Stats {
	nWorkers = workerCount(nWorkers)
	for len(m.workers) < nWorkers {
		m.workers = append(m.workers, &batchCtx{m: m})
	}
	if len(seeds) > 0 {
		m.inFlight.Add(int64(len(seeds)))
		m.PushBatch(seeds)
	}
	m.wg.Add(nWorkers)
	for wid := 0; wid < nWorkers; wid++ {
		go m.batchLoop(wid, opt.batchSize(), task)
	}
	m.wg.Wait()
	return m.Stats()
}

// batchLoop is the one worker loop: pop a batch, run it, flush what it
// staged, until no task is queued, staged or running anywhere.
func (m *MultiQueue) batchLoop(wid, batchSize int, task func(workerID int, it Item, push Pusher)) {
	defer m.wg.Done()
	c := m.workers[wid]
	if len(c.batch) != batchSize {
		c.batch = make([]Item, batchSize)
		c.buf = make([]Item, 0, batchSize)
	}
	defer c.foldStats()
	idle := 0
	for {
		n := m.popBatchInto(&c.st, c.batch)
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
			task(wid, c.batch[i], c)
		}
		c.flush()
		m.inFlight.Add(-int64(n))
	}
}
