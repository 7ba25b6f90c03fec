package mq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// Tests for the batched operations (PushBatch / PopBatch /
// ProcessBatch). The batching contract relaxes priority order further
// than the single-item MQ — a batch pop drains one heap's prefix
// without consulting the others — so these tests check conservation
// (nothing lost, nothing duplicated) and termination, not rank.

func TestPushBatchPopBatchRoundTrip(t *testing.T) {
	m := New(8)
	const n, k = 10000, 64
	items := make([]Item, 0, k)
	for i := uint64(0); i < n; i++ {
		items = append(items, Item{Pri: i, Val: i})
		if len(items) == k {
			m.PushBatch(items)
			items = items[:0]
		}
	}
	m.PushBatch(items)
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	seen := make([]bool, n)
	dst := make([]Item, k)
	got := 0
	for {
		c := m.PopBatch(dst)
		if c == 0 {
			break
		}
		for _, it := range dst[:c] {
			if seen[it.Val] {
				t.Fatalf("item %d popped twice", it.Val)
			}
			seen[it.Val] = true
		}
		got += c
	}
	if got != n {
		t.Fatalf("popped %d of %d", got, n)
	}
}

func TestPopBatchRespectsDestinationLength(t *testing.T) {
	m := New(2)
	for i := uint64(0); i < 100; i++ {
		m.Push(Item{Pri: i, Val: i})
	}
	dst := make([]Item, 7)
	if c := m.PopBatch(dst); c > 7 {
		t.Fatalf("PopBatch returned %d items into a 7-slot buffer", c)
	}
	if c := m.PopBatch(nil); c != 0 {
		t.Fatalf("PopBatch(nil) = %d, want 0", c)
	}
}

func TestPushBatchEmptyIsNoop(t *testing.T) {
	m := New(2)
	m.PushBatch(nil)
	if m.Len() != 0 {
		t.Fatalf("Len = %d after empty PushBatch", m.Len())
	}
	st := m.Stats()
	if st.LockAcquires != 0 {
		t.Fatalf("empty PushBatch acquired %d locks", st.LockAcquires)
	}
}

// TestBatchSingleInterleaveConcurrent is the -race stress test: half
// the producers push batches while the other half push single items,
// and consumers drain with a mix of PopBatch and Pop. Every item must
// come out exactly once.
func TestBatchSingleInterleaveConcurrent(t *testing.T) {
	m := New(8)
	const perG, gs = 4000, 4 // 2 batch + 2 single producers
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * perG)
			if g%2 == 0 {
				buf := make([]Item, 0, 32)
				for i := uint64(0); i < perG; i++ {
					buf = append(buf, Item{Pri: i, Val: base + i})
					if len(buf) == cap(buf) {
						m.PushBatch(buf)
						buf = buf[:0]
					}
				}
				m.PushBatch(buf)
			} else {
				for i := uint64(0); i < perG; i++ {
					m.Push(Item{Pri: i, Val: base + i})
				}
			}
		}(g)
	}
	wg.Wait()

	var popped atomic.Int64
	seen := make([]atomic.Bool, perG*gs)
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mark := func(it Item) bool {
				if seen[it.Val].Swap(true) {
					t.Errorf("item %d popped twice", it.Val)
					return false
				}
				popped.Add(1)
				return true
			}
			if g%2 == 0 {
				dst := make([]Item, 48)
				for {
					c := m.PopBatch(dst)
					if c == 0 {
						return
					}
					for _, it := range dst[:c] {
						if !mark(it) {
							return
						}
					}
				}
			} else {
				for {
					it, ok := m.Pop()
					if !ok {
						return
					}
					if !mark(it) {
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if popped.Load() != perG*gs {
		t.Fatalf("popped %d of %d", popped.Load(), perG*gs)
	}
}

func TestProcessBatchRunsAllSeeds(t *testing.T) {
	var count atomic.Int64
	seeds := make([]Item, 500)
	for i := range seeds {
		seeds[i] = Item{Pri: uint64(i), Val: uint64(i)}
	}
	ProcessBatch(4, seeds, Options{}, func(_ int, _ Item, _ Pusher) {
		count.Add(1)
	})
	if count.Load() != 500 {
		t.Fatalf("processed %d, want 500", count.Load())
	}
}

// TestProcessBatchDynamicSpawning checks termination detection with
// staged pushes: children sit invisible in a worker's staging buffer
// until the popped batch finishes, so the in-flight accounting must
// not let the pool quiesce while work is staged.
func TestProcessBatchDynamicSpawning(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var count atomic.Int64
		ProcessBatch(workers, []Item{{Pri: 0, Val: 12}}, Options{BatchSize: 16},
			func(_ int, it Item, push Pusher) {
				count.Add(1)
				if it.Val > 0 {
					push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
					push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
				}
			})
		if count.Load() != 8191 { // full binary tree of depth 12
			t.Fatalf("workers=%d: executed %d tasks, want 8191", workers, count.Load())
		}
	}
}

// TestProcessIsClassicDiscipline pins Process as the one loop at
// BatchSize 1: every locked operation moves exactly one item, so a task
// costs its push and its pop — the two locks per vertex docs/GRAPH.md
// quotes as the baseline — plus only the probes that found a queue
// already drained.
func TestProcessIsClassicDiscipline(t *testing.T) {
	const tree = 8191 // full binary tree of depth 12
	for _, workers := range []int{1, 2, 8} {
		ran := make([]atomic.Int32, tree)
		// Val is the node's heap index, so each task is identifiable.
		st := Process(workers, []Item{{Pri: 0, Val: 0}}, func(_ int, it Item, push Pusher) {
			ran[it.Val].Add(1)
			if l := 2*it.Val + 1; l < tree {
				push.Push(Item{Pri: it.Pri + 1, Val: l})
				push.Push(Item{Pri: it.Pri + 1, Val: l + 1})
			}
		})
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
		if st.PoppedItems != tree || st.PushedItems != tree {
			t.Fatalf("workers=%d: counters %+v do not add up to %d items", workers, st, tree)
		}
		if st.PushOps != st.PushedItems || st.PopOps != st.PoppedItems {
			t.Fatalf("workers=%d: a locked operation moved more than one item: %+v", workers, st)
		}
		lpi, hi := st.LocksPerItem(), 2+float64(st.EmptyPops)/float64(st.PoppedItems)
		if lpi < 2 || lpi > hi {
			t.Fatalf("workers=%d: %.4f locks per item, want within [2, %.4f]", workers, lpi, hi)
		}
	}
}

func TestProcessBatchNoSeeds(t *testing.T) {
	ran := false
	ProcessBatch(2, nil, Options{}, func(_ int, _ Item, _ Pusher) { ran = true })
	if ran {
		t.Fatal("task ran with no seeds")
	}
}

// TestBatchingCutsLockAcquires pins the point of the whole exercise:
// moving the same items through the queue in batches of k needs about
// 1/k of the lock acquisitions.
func TestBatchingCutsLockAcquires(t *testing.T) {
	const n, k = 8192, 64
	single := New(4)
	for i := uint64(0); i < n; i++ {
		single.Push(Item{Pri: i, Val: i})
	}
	for {
		if _, ok := single.Pop(); !ok {
			break
		}
	}
	ss := single.Stats()

	batched := New(4)
	buf := make([]Item, k)
	for i := uint64(0); i < n; i += k {
		for j := range buf {
			buf[j] = Item{Pri: i + uint64(j), Val: i + uint64(j)}
		}
		batched.PushBatch(buf)
	}
	for {
		if c := batched.PopBatch(buf); c == 0 {
			break
		}
	}
	bs := batched.Stats()

	if ss.PoppedItems != n || bs.PoppedItems != n {
		t.Fatalf("popped %d / %d, want %d", ss.PoppedItems, bs.PoppedItems, n)
	}
	sl, bl := ss.LocksPerItem(), bs.LocksPerItem()
	if bl*8 > sl {
		t.Fatalf("batching should cut locks/item by ~%dx: single=%.3f batched=%.3f", k, sl, bl)
	}
}

// TestResetEmptiesAndZeroes: after Reset a used queue holds nothing,
// reports zero counters, and takes pushes and pops like a new one.
func TestResetEmptiesAndZeroes(t *testing.T) {
	m := New(8)
	for i := 0; i < 300; i++ {
		m.Push(Item{Pri: uint64(i % 17), Val: uint64(i)})
	}
	m.PopBatch(make([]Item, 40))
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if it, ok := m.Pop(); ok {
		t.Fatalf("Pop after Reset returned %+v", it)
	}
	m.Reset() // the failed Pop counted an attempt
	if st := m.Stats(); st != (Stats{}) {
		t.Fatalf("Stats after Reset = %+v", st)
	}
	m.PushBatch([]Item{{Pri: 3, Val: 30}, {Pri: 1, Val: 10}})
	if it, ok := m.Pop(); !ok || it.Val != 10 {
		t.Fatalf("first Pop after Reset = %+v, %v; want Val 10", it, ok)
	}
}

// treeTask runs a full binary tree of tasks: a task with Val v > 0
// pushes two children with v-1, so seed Val d makes 2^(d+1)-1 tasks.
func treeTask(count *atomic.Int64) func(int, Item, Pusher) {
	return func(_ int, it Item, push Pusher) {
		count.Add(1)
		if it.Val > 0 {
			push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
			push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
		}
	}
}

// TestProcessBatchOnReusesQueue drives one queue many times on a pool,
// as k-core does once per level: every drive runs its whole task tree
// and leaves the queue empty, the counters accumulate from drive to
// drive until a Reset, and a drive on a warmed queue allocates only the
// Join tree's stolen branches (one per slot after the first), not per
// queue, heap or buffer.
func TestProcessBatchOnReusesQueue(t *testing.T) {
	const tree = 1023 // full binary tree of depth 9
	seeds := []Item{{Pri: 0, Val: 9}}
	for _, workers := range []int{1, 2, 4} {
		p := sched.NewPool(workers)
		m := New(0)
		var count atomic.Int64
		task := treeTask(&count)
		// t.Fatalf would end a pool worker, not the test: report with
		// t.Errorf and leave the drive loop.
		p.Do(func(w *sched.Worker) {
			for drive := 1; drive <= 5; drive++ {
				st := ProcessBatchOn(w, m, seeds, Options{BatchSize: 16}, task)
				if got := count.Load(); got != int64(drive*tree) {
					t.Errorf("workers=%d drive %d: %d tasks ran in all, want %d", workers, drive, got, drive*tree)
					return
				}
				if st.PoppedItems != uint64(drive*tree) || st.PushedItems != st.PoppedItems {
					t.Errorf("workers=%d drive %d: counters %+v do not add up to %d items", workers, drive, st, drive*tree)
					return
				}
				if m.Len() != 0 {
					t.Errorf("workers=%d drive %d left %d items queued", workers, drive, m.Len())
					return
				}
			}
			if len(m.queues) != queuesPerWorker*workers {
				t.Errorf("workers=%d: the drive sized the queue to %d queues, want %d", workers, len(m.queues), queuesPerWorker*workers)
			}
			m.Reset()
			if st := ProcessBatchOn(w, m, seeds, Options{BatchSize: 16}, task); st.PoppedItems != tree {
				t.Errorf("workers=%d: after Reset the counters restart: popped %d, want %d", workers, st.PoppedItems, tree)
			}
			if perDrive := testing.AllocsPerRun(20, func() {
				ProcessBatchOn(w, m, seeds, Options{BatchSize: 16}, task)
			}); perDrive > float64(workers-1) {
				t.Errorf("workers=%d: a drive on a warmed queue allocates %.0f times, want at most %d", workers, perDrive, workers-1)
			}
		})
		p.Close()
	}
}

// TestProcessBatchOnStartsNoGoroutines: a drive runs on the pool's own
// workers, so no task ever sees more goroutines than existed before the
// drive started.
func TestProcessBatchOnStartsNoGoroutines(t *testing.T) {
	p := sched.NewPool(4)
	defer p.Close()
	var count, most atomic.Int64
	tree := treeTask(&count)
	task := func(slot int, it Item, push Pusher) {
		for n := int64(runtime.NumGoroutine()); ; {
			old := most.Load()
			if n <= old || most.CompareAndSwap(old, n) {
				break
			}
		}
		tree(slot, it, push)
	}
	var before int
	p.Do(func(w *sched.Worker) {
		before = runtime.NumGoroutine()
		ProcessBatchOn(w, New(0), []Item{{Pri: 0, Val: 12}}, Options{}, task)
	})
	if count.Load() != 8191 {
		t.Fatalf("executed %d tasks, want 8191", count.Load())
	}
	if most.Load() > int64(before) {
		t.Fatalf("tasks saw up to %d goroutines, %d before the drive", most.Load(), before)
	}
}

// TestProcessBatchOnTaskPanic: a task that panics partway through a
// task tree ends the drive — the other slots stop rather than spin on
// an in-flight count that can no longer reach zero — and the panic
// reaches the caller of Pool.Do as a *sched.TaskPanic. After Reset the
// same queue runs a whole tree again with exact counters.
func TestProcessBatchOnTaskPanic(t *testing.T) {
	p := sched.NewPool(4)
	defer p.Close()
	m := New(0)
	var count atomic.Int64
	var fired atomic.Bool
	tree := treeTask(&count)
	boom := func(slot int, it Item, push Pusher) {
		if count.Load() >= 500 && fired.CompareAndSwap(false, true) {
			panic("boom")
		}
		tree(slot, it, push)
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		p.Do(func(w *sched.Worker) {
			ProcessBatchOn(w, m, []Item{{Pri: 0, Val: 12}}, Options{BatchSize: 16}, boom)
		})
	}()
	select {
	case r := <-done:
		tp, ok := r.(*sched.TaskPanic)
		if !ok || tp.Value != "boom" {
			t.Fatalf("Pool.Do raised %v, want a *sched.TaskPanic of \"boom\"", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the drive did not end within 10s of a task panic")
	}

	m.Reset()
	count.Store(0)
	var st Stats
	p.Do(func(w *sched.Worker) {
		st = ProcessBatchOn(w, m, []Item{{Pri: 0, Val: 12}}, Options{BatchSize: 16}, tree)
	})
	if count.Load() != 8191 || st.PoppedItems != 8191 || st.PushedItems != 8191 {
		t.Fatalf("after Reset: %d tasks ran, counters %+v; want 8191 of each", count.Load(), st)
	}
}
