package mq

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLocalQueueHeapOrder(t *testing.T) {
	var q localQueue
	var items []Item
	for _, p := range []uint64{5, 1, 9, 3, 7} {
		items = append(items, Item{Pri: p, Val: p * 10})
	}
	q.pushAll(items[:3])
	q.pushAll(items[3:])
	if q.top.Load() != 1 {
		t.Fatalf("top cache = %d after pushes, want 1", q.top.Load())
	}
	// Two at a time, so a pop both fills dst and comes up short.
	dst := make([]Item, 2)
	var got []Item
	for n := q.popUpTo(dst); n > 0; n = q.popUpTo(dst) {
		got = append(got, dst[:n]...)
	}
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("popped %d items, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Pri != w || got[i].Val != w*10 {
			t.Fatalf("pop %d = %+v, want pri %d", i, got[i], w)
		}
	}
	if q.top.Load() != emptyTop {
		t.Fatal("top cache not reset on empty")
	}
}

func TestLocalQueuePropertySortedDrain(t *testing.T) {
	f := func(pris []uint32) bool {
		var q localQueue
		items := make([]Item, len(pris))
		for i, p := range pris {
			items[i] = Item{Pri: uint64(p)}
		}
		q.pushAll(items)
		want := append([]uint32(nil), pris...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		one := make([]Item, 1)
		for _, w := range want {
			if q.popUpTo(one) != 1 || one[0].Pri != uint64(w) {
				return false
			}
		}
		return q.popUpTo(one) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiQueueLosesNothing(t *testing.T) {
	m := New(8)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		m.Push(Item{Pri: i, Val: i})
	}
	if m.Len() != n {
		t.Fatalf("Len = %d", m.Len())
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		it, ok := m.Pop()
		if !ok {
			t.Fatalf("pop %d failed with items remaining", i)
		}
		if seen[it.Val] {
			t.Fatalf("item %d popped twice", it.Val)
		}
		seen[it.Val] = true
	}
	if _, ok := m.Pop(); ok {
		t.Fatal("pop on drained queue succeeded")
	}
}

func TestMultiQueueRelaxedButRoughlyOrdered(t *testing.T) {
	// The MQ gives probabilistic rank guarantees: pops should correlate
	// strongly with priority order even though exact order is relaxed.
	m := New(4)
	const n = 20000
	for i := uint64(0); i < n; i++ {
		m.Push(Item{Pri: i, Val: i})
	}
	var inversions, total int
	prev := uint64(0)
	for i := 0; i < n; i++ {
		it, _ := m.Pop()
		if i > 0 {
			total++
			if it.Pri < prev {
				inversions++
			}
		}
		prev = it.Pri
	}
	if frac := float64(inversions) / float64(total); frac > 0.6 {
		t.Fatalf("inversion fraction %.2f too high for a relaxed PQ", frac)
	}
}

func TestMultiQueueConcurrent(t *testing.T) {
	m := New(8)
	const perG, gs = 5000, 4
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.Push(Item{Pri: uint64(i), Val: uint64(g*perG + i)})
			}
		}(g)
	}
	wg.Wait()
	var popped atomic.Int64
	seen := make([]atomic.Bool, perG*gs)
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it, ok := m.Pop()
				if !ok {
					return
				}
				if seen[it.Val].Swap(true) {
					t.Errorf("item %d popped twice", it.Val)
					return
				}
				popped.Add(1)
			}
		}()
	}
	wg.Wait()
	if popped.Load() != perG*gs {
		t.Fatalf("popped %d of %d", popped.Load(), perG*gs)
	}
}

func TestNewClampsQueues(t *testing.T) {
	if len(New(0).queues) != 2 || len(New(-5).queues) != 2 {
		t.Fatal("queue count not clamped")
	}
	if len(New(7).queues) != 7 {
		t.Fatal("queue count not respected")
	}
}

func TestProcessRunsAllSeeds(t *testing.T) {
	var count atomic.Int64
	seeds := make([]Item, 100)
	for i := range seeds {
		seeds[i] = Item{Pri: uint64(i), Val: uint64(i)}
	}
	Process(4, seeds, func(_ int, it Item, _ Pusher) {
		count.Add(1)
	})
	if count.Load() != 100 {
		t.Fatalf("processed %d, want 100", count.Load())
	}
}

func TestProcessDynamicSpawning(t *testing.T) {
	// Each task with Val v > 0 spawns two children with v-1; counting
	// total executions checks both scheduling and termination detection.
	var count atomic.Int64
	Process(4, []Item{{Pri: 0, Val: 10}}, func(_ int, it Item, push Pusher) {
		count.Add(1)
		if it.Val > 0 {
			push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
			push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
		}
	})
	// Executions of a full binary tree of depth 10: 2^11 - 1.
	if count.Load() != 2047 {
		t.Fatalf("executed %d tasks, want 2047", count.Load())
	}
}

func TestProcessNoSeeds(t *testing.T) {
	ran := false
	Process(2, nil, func(_ int, _ Item, _ Pusher) { ran = true })
	if ran {
		t.Fatal("task ran with no seeds")
	}
}

func TestProcessSingleWorkerPriorityTrend(t *testing.T) {
	// With one worker, pops should come out in near-priority order.
	var order []uint64
	seeds := []Item{}
	for i := 100; i > 0; i-- {
		seeds = append(seeds, Item{Pri: uint64(i), Val: uint64(i)})
	}
	Process(1, seeds, func(_ int, it Item, _ Pusher) {
		order = append(order, it.Pri)
	})
	if len(order) != 100 {
		t.Fatalf("ran %d tasks", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions > 50 {
		t.Fatalf("too many inversions for 1 worker: %d", inversions)
	}
}

func BenchmarkMultiQueuePushPop(b *testing.B) {
	m := New(8)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			m.Push(Item{Pri: i, Val: i})
			m.Pop()
			i++
		}
	})
}
