// Package mq implements the MultiQueue relaxed concurrent priority
// scheduler of Rihani, Sanders & Dementiev (SPAA 2015), as used by the
// paper's bfs and sssp benchmarks (Sec 6): a vector of queuesPerWorker*P
// sequential 4-ary heaps, each guarded by a mutex. A push locks one
// random queue; a pop compares the cached tops of two random queues and
// locks only the one whose top has higher priority (smaller key), giving
// probabilistic rank guarantees that in practice keep priority
// inversions small while scaling far better than a single concurrent
// heap.
//
// There is one engine. Every locked queue operation moves a batch:
// pushBatchInto is the only function that locks a queue to push,
// popBatchInto the only one that locks to pop, and batchLoop
// (process.go) the only slot loop. Push, Pop, PushBatch and PopBatch
// are length-1 and length-n wrappers over the two. What a driver chooses
// is Options.BatchSize, and two values are in use:
//
//   - 1 is the classic discipline of the paper's bfs/sssp baseline
//     (Process): a pushed task reaches the queue at once and a pop takes
//     one, two lock acquisitions per executed task.
//   - 64 (the default) amortizes one lock acquisition and at most one
//     cached-top update over a whole batch, the optimization that turns
//     the graph kernels' hot loop from lock traffic into edge relaxation
//     (docs/GRAPH.md). Batching relaxes priority order further — a
//     popped batch is ordered, but its tail may rank behind items left
//     in other queues — which relaxed-priority drivers already tolerate
//     by construction.
//
// There is one runtime too. A drive (ProcessBatchOn) runs on the
// workers of the caller's sched.Pool, one slot loop per worker spread
// by a Join tree; it starts no goroutine of its own, so its work shows
// in sched.WorkerStats and a task's panic reaches the caller. Only
// ProcessBatch and Process, the adapters for callers without a worker,
// start a pool of their own around one drive.
//
// The paper's fear analysis of this code (Observation 6): implementing
// the scheduler is "Scared" work — mutexes rule out unsynchronized
// access but deadlock/livelock discipline is on the implementer — while
// *using* a correctly implemented MultiQueue leaves only the fear
// induced by each task's own data accesses.
package mq

import (
	"sync"
	"sync/atomic"

	"repro/internal/seqgen"
)

// Item is a prioritized task: Pri orders pops (smaller first) and Val
// carries the payload (typically a vertex id).
type Item struct {
	Pri uint64
	Val uint64
}

// localQueue is one mutex-guarded sequential 4-ary min-heap, padded so
// adjacent queues in the MultiQueue's vector never share a cache line:
// without the padding every lock handoff on queue i invalidates the
// cached top of queues i-1 and i+1, which a pop reads lock-free on its
// best-of-two probes.
type localQueue struct {
	mu sync.Mutex
	h  []Item
	// top caches the current minimum priority (^0 when empty) so a pop
	// can compare two queues without taking both locks. It is only stored
	// when the minimum actually changed (see syncTop), so mid-heap inserts
	// cost no cross-core invalidation at all.
	top atomic.Uint64
	// 8 (mutex) + 24 (slice) + 8 (top) = 40 bytes of fields; pad to two
	// cache lines to also defeat the adjacent-line prefetcher.
	_ [88]byte
}

const emptyTop = ^uint64(0)

// heapArity: the sequential heaps are 4-ary, not binary. Pops dominate
// the queues' heap traffic (every item is sifted down once on its way
// out), and a 4-ary sift-down does half the levels of a binary one with
// all four children on the same pair of cache lines — a classic
// constant-factor win for pop-heavy workloads.
const heapArity = 4

// insert sifts a new item into the heap without touching the cached
// top.
func (q *localQueue) insert(it Item) {
	q.h = append(q.h, it)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if q.h[parent].Pri <= q.h[i].Pri {
			break
		}
		q.h[parent], q.h[i] = q.h[i], q.h[parent]
		i = parent
	}
}

// removeMin extracts a minimum-priority item without touching the
// cached top.
func (q *localQueue) removeMin() Item {
	last := len(q.h) - 1
	if q.h[last].Pri == q.h[0].Pri {
		// The tail shares the root's priority, so it is itself a minimum
		// and a leaf: return it with no sift at all. Priority schedulers
		// with few distinct keys (BFS levels, delta-stepping buckets)
		// take this O(1) path for almost every pop.
		it := q.h[last]
		q.h = q.h[:last]
		return it
	}
	it := q.h[0]
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= len(q.h) {
			break
		}
		end := first + heapArity
		if end > len(q.h) {
			end = len(q.h)
		}
		small := i
		for c := first; c < end; c++ {
			if q.h[c].Pri < q.h[small].Pri {
				small = c
			}
		}
		if small == i {
			break
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
	return it
}

// syncTop republishes the cached top if it drifted from the heap's
// actual minimum. prev is the previously published value.
func (q *localQueue) syncTop(prev uint64) {
	cur := emptyTop
	if len(q.h) > 0 {
		cur = q.h[0].Pri
	}
	if cur != prev {
		q.top.Store(cur)
	}
}

// pushAll inserts items with a single top update.
func (q *localQueue) pushAll(items []Item) {
	prev := emptyTop
	if len(q.h) > 0 {
		prev = q.h[0].Pri
	}
	for _, it := range items {
		q.insert(it)
	}
	q.syncTop(prev)
}

// popUpTo extracts up to len(dst) items in priority order with a single
// top update, returning the count.
func (q *localQueue) popUpTo(dst []Item) int {
	if len(q.h) == 0 {
		return 0
	}
	prev := q.h[0].Pri
	n := 0
	for n < len(dst) && len(q.h) > 0 {
		dst[n] = q.removeMin()
		n++
	}
	q.syncTop(prev)
	return n
}

// Stats is a snapshot of a MultiQueue's operation counters, the
// telemetry behind `rpbreport -what graph`. LockAcquires/PoppedItems is
// the headline ratio: the classic single-item discipline pays about two
// lock acquisitions per processed vertex (one push, one pop), while
// batched drivers amortize one acquisition over a whole batch.
type Stats struct {
	LockAcquires uint64 // mutex acquisitions across all queue operations
	PushOps      uint64 // locked push operations (single-item or batch)
	PopOps       uint64 // locked pops that returned at least one item
	EmptyPops    uint64 // locked pops that found their queue drained
	PushedItems  uint64
	PoppedItems  uint64
}

// LocksPerItem returns lock acquisitions per popped item (0 when
// nothing was popped).
func (s Stats) LocksPerItem() float64 {
	if s.PoppedItems == 0 {
		return 0
	}
	return float64(s.LockAcquires) / float64(s.PoppedItems)
}

// add accumulates a local counter block into the shared atomics.
func (c *counters) add(s Stats) {
	if s == (Stats{}) {
		return
	}
	c.lockAcquires.Add(s.LockAcquires)
	c.pushOps.Add(s.PushOps)
	c.popOps.Add(s.PopOps)
	c.emptyPops.Add(s.EmptyPops)
	c.pushedItems.Add(s.PushedItems)
	c.poppedItems.Add(s.PoppedItems)
}

// counters is the shared atomic form of Stats. The two engines count
// into a caller-supplied Stats: Push/Pop/PushBatch/PopBatch fold theirs
// in once per call, a drive's slot accumulates locally and folds once
// at loop exit (batchLoop), keeping the hot path free of shared-counter
// traffic.
type counters struct {
	lockAcquires atomic.Uint64
	pushOps      atomic.Uint64
	popOps       atomic.Uint64
	emptyPops    atomic.Uint64
	pushedItems  atomic.Uint64
	poppedItems  atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		LockAcquires: c.lockAcquires.Load(),
		PushOps:      c.pushOps.Load(),
		PopOps:       c.popOps.Load(),
		EmptyPops:    c.emptyPops.Load(),
		PushedItems:  c.pushedItems.Load(),
		PoppedItems:  c.poppedItems.Load(),
	}
}

// queuesPerWorker is the number of internal queues a drive gives each
// slot (the literature's c, 2..4 there).
const queuesPerWorker = 4

// MultiQueue is the relaxed concurrent priority queue.
type MultiQueue struct {
	queues []localQueue
	size   atomic.Int64 // total queued items (approximate during races)
	rng    seqgen.Rng
	seq    atomic.Uint64
	stats  counters

	// ProcessBatchOn's state (process.go), kept from one drive to the next.
	slots    []*batchCtx
	inFlight atomic.Int64 // tasks pushed whose execution has not finished
	aborted  atomic.Bool  // a task panicked; the drive's slots stop
}

// New creates a MultiQueue of nQueues internal queues, clamped to at
// least 2. A drive resizes it to queuesPerWorker per slot, so a queue
// built only to be driven can start at New(0).
func New(nQueues int) *MultiQueue {
	m := &MultiQueue{rng: seqgen.NewRng(0xABCD)}
	m.setQueues(max(nQueues, 2))
	return m
}

// setQueues replaces the queues with n empty ones. The queue must be
// empty and idle.
func (m *MultiQueue) setQueues(n int) {
	m.queues = make([]localQueue, n)
	for i := range m.queues {
		m.queues[i].top.Store(emptyTop)
	}
}

// Reset empties the queue and zeroes its counters, keeping the heaps'
// capacity and the drivers' per-slot buffers, so a kernel's next run
// starts from a queue as good as new without allocating one (the same
// contract as hashtable.Set.Reset and unionfind.UF.Reset). It also
// clears what an aborted drive left behind: staged pushes and the abort
// flag. The random sequence carries on rather than restarting. The
// queue must be idle.
func (m *MultiQueue) Reset() {
	for i := range m.queues {
		q := &m.queues[i]
		q.h = q.h[:0]
		q.top.Store(emptyTop)
	}
	for _, c := range m.slots {
		c.buf = c.buf[:0]
	}
	m.size.Store(0)
	m.inFlight.Store(0)
	m.aborted.Store(false)
	m.stats = counters{}
}

// Len returns the approximate number of queued items.
func (m *MultiQueue) Len() int { return int(m.size.Load()) }

// Stats returns a snapshot of the operation counters, including
// everything the slots of finished drives folded in.
func (m *MultiQueue) Stats() Stats { return m.stats.snapshot() }

func (m *MultiQueue) rand() uint64 { return m.rng.U64(m.seq.Add(1)) }

// Push inserts an item into a random queue.
func (m *MultiQueue) Push(it Item) {
	one := [1]Item{it}
	m.PushBatch(one[:])
}

// PushBatch inserts all items into one random queue under a single lock
// acquisition with at most one cached-top update. The batch stays
// heap-ordered within its queue; relative to other queues it relaxes
// priority order no differently than any other bulk arrival.
func (m *MultiQueue) PushBatch(items []Item) {
	if len(items) == 0 {
		return
	}
	var st Stats
	m.pushBatchInto(&st, items)
	m.stats.add(st)
}

// Pop removes the better-topped of two random queues and returns its
// minimum item. It returns ok=false when it finds no item; because the
// queue is relaxed, a false return during concurrent pushes is not a
// linearizable emptiness guarantee — drivers combine it with their own
// in-flight accounting (see ProcessBatchOn).
func (m *MultiQueue) Pop() (Item, bool) {
	var one [1]Item
	ok := m.PopBatch(one[:]) == 1
	return one[0], ok
}

// PopBatch removes up to len(dst) items from the better-topped of two
// random queues under a single lock acquisition, returning the count.
// The batch is in priority order. A zero return carries the same
// relaxed-emptiness caveat as Pop.
func (m *MultiQueue) PopBatch(dst []Item) int {
	if len(dst) == 0 {
		return 0
	}
	var st Stats
	n := m.popBatchInto(&st, dst)
	m.stats.add(st)
	return n
}

// pushBatchInto is the push engine, the only function that locks a
// queue to push: all of items (non-empty) into one random queue,
// counters accumulated into st.
func (m *MultiQueue) pushBatchInto(st *Stats, items []Item) {
	q := &m.queues[m.rand()%uint64(len(m.queues))]
	q.mu.Lock()
	q.pushAll(items)
	q.mu.Unlock()
	m.size.Add(int64(len(items)))
	st.LockAcquires++
	st.PushOps++
	st.PushedItems += uint64(len(items))
}

// popAttempts is how many best-of-two probes a pop makes before it
// sweeps every queue once to rule out misses.
const popAttempts = 4

// popBatchInto is the pop engine, the only function that locks a queue
// to pop: up to len(dst) items (dst non-empty) from one queue, counters
// accumulated into st.
func (m *MultiQueue) popBatchInto(st *Stats, dst []Item) int {
	n := uint64(len(m.queues))
	for a := 0; a < popAttempts+len(m.queues); a++ {
		var win *localQueue
		if a < popAttempts {
			i := m.rand() % n
			j := m.rand() % n
			if i == j {
				j = (j + 1) % n
			}
			qi, qj := &m.queues[i], &m.queues[j]
			// Compare cached tops without locks, then lock only the winner.
			ti, tj := qi.top.Load(), qj.top.Load()
			if ti == emptyTop && tj == emptyTop {
				continue
			}
			win = qi
			if tj < ti {
				win = qj
			}
		} else {
			win = &m.queues[a-popAttempts]
			if win.top.Load() == emptyTop {
				continue
			}
		}
		win.mu.Lock()
		got := win.popUpTo(dst)
		win.mu.Unlock()
		st.LockAcquires++
		if got > 0 {
			st.PopOps++
			st.PoppedItems += uint64(got)
			m.size.Add(-int64(got))
			return got
		}
		st.EmptyPops++
	}
	return 0
}
