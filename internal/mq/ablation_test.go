package mq

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Ablation: the MultiQueue's central design knob is the number of
// internal queues (c * P in the literature). Fewer queues mean tighter
// priority order but more lock contention; more queues scale better but
// relax ordering. These tests and benchmarks quantify both sides, the
// trade-off Sec 6 of the paper leans on.

// rankError drains a pre-filled MQ and returns the mean rank error:
// how far from the ideal priority order each pop was.
func rankError(nQueues, n int) float64 {
	m := New(nQueues)
	for i := 0; i < n; i++ {
		m.Push(Item{Pri: uint64(i), Val: uint64(i)})
	}
	var total float64
	for i := 0; i < n; i++ {
		it, ok := m.Pop()
		if !ok {
			panic("drained early")
		}
		d := float64(it.Pri) - float64(i)
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total / float64(n)
}

func TestAblationRankErrorGrowsWithQueues(t *testing.T) {
	const n = 20000
	tight := rankError(2, n)
	loose := rankError(64, n)
	if tight >= loose {
		t.Fatalf("rank error should grow with queue count: 2q=%.1f 64q=%.1f", tight, loose)
	}
	// Even the loose configuration must stay within the probabilistic
	// O(P) expectation band, far below random order (~n/3).
	if loose > float64(n)/10 {
		t.Fatalf("64-queue rank error %.1f looks unbounded", loose)
	}
}

func BenchmarkAblationQueueCount(b *testing.B) {
	for _, q := range []int{2, 4, 16, 64} {
		b.Run(fmt.Sprintf("queues-%d", q), func(b *testing.B) {
			m := New(q)
			b.RunParallel(func(pb *testing.PB) {
				i := uint64(0)
				for pb.Next() {
					m.Push(Item{Pri: i, Val: i})
					m.Pop()
					i++
				}
			})
		})
	}
}

// TestAblationBatchSizeLocksPerItem quantifies the batching knob the
// graph kernels depend on (docs/GRAPH.md): locks per item must fall
// roughly linearly in the batch size.
func TestAblationBatchSizeLocksPerItem(t *testing.T) {
	const n = 1 << 14
	prev := 1e18
	for _, k := range []int{1, 8, 64, 256} {
		m := New(8)
		buf := make([]Item, k)
		for i := 0; i < n; i += k {
			for j := range buf {
				buf[j] = Item{Pri: uint64(i + j), Val: uint64(i + j)}
			}
			m.PushBatch(buf)
		}
		for m.PopBatch(buf) > 0 {
		}
		st := m.Stats()
		if st.PoppedItems != n {
			t.Fatalf("k=%d: popped %d of %d", k, st.PoppedItems, n)
		}
		lpi := st.LocksPerItem()
		t.Logf("batch=%-4d locks/item=%.4f", k, lpi)
		if lpi >= prev {
			t.Errorf("locks/item should fall with batch size: k=%d got %.4f, previous %.4f", k, lpi, prev)
		}
		prev = lpi
	}
}

// BenchmarkAblationBatchSize drives the same dynamic workload through
// ProcessBatch at several batch sizes; batch=1 degenerates to per-item
// staging and shows what the amortization buys.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, k := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var count atomic.Int64
				ProcessBatch(4, []Item{{Pri: 0, Val: 14}}, Options{BatchSize: k},
					func(_ int, it Item, push Pusher) {
						count.Add(1)
						if it.Val > 0 {
							push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
							push.Push(Item{Pri: it.Pri + 1, Val: it.Val - 1})
						}
					})
				if count.Load() != 32767 {
					b.Fatalf("executed %d tasks, want 32767", count.Load())
				}
			}
		})
	}
}
