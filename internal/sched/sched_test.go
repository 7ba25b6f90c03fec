package sched

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDequeLIFOOwner(t *testing.T) {
	var d deque
	mk := func(i int) *task {
		t := task(func(*Worker) { _ = i })
		return &t
	}
	tasks := []*task{mk(1), mk(2), mk(3)}
	for _, tk := range tasks {
		if !d.PushBottom(tk) {
			t.Fatal("push failed on empty deque")
		}
	}
	for i := 2; i >= 0; i-- {
		got := d.PopBottom()
		if got != tasks[i] {
			t.Fatalf("pop %d: got %p want %p", i, got, tasks[i])
		}
	}
	if d.PopBottom() != nil {
		t.Fatal("pop on empty deque should return nil")
	}
}

func TestDequeStealFIFO(t *testing.T) {
	var d deque
	mk := func() *task {
		t := task(func(*Worker) {})
		return &t
	}
	a, b := mk(), mk()
	d.PushBottom(a)
	d.PushBottom(b)
	if got := d.Steal(); got != a {
		t.Fatalf("steal: got %p want oldest %p", got, a)
	}
	if got := d.PopBottom(); got != b {
		t.Fatalf("pop: got %p want %p", got, b)
	}
	if d.Steal() != nil {
		t.Fatal("steal on empty deque should return nil")
	}
}

func TestDequeFull(t *testing.T) {
	var d deque
	tk := task(func(*Worker) {})
	for i := 0; i < dequeCapacity; i++ {
		if !d.PushBottom(&tk) {
			t.Fatalf("push %d failed before capacity", i)
		}
	}
	if d.PushBottom(&tk) {
		t.Fatal("push beyond capacity should fail")
	}
}

func TestDequeConcurrentStealers(t *testing.T) {
	// One owner pushes/pops, several thieves steal; every task must be
	// executed exactly once.
	const n = 20000
	const thieves = 4
	var d deque
	var executed atomic.Int64
	counts := make([]atomic.Int32, n)

	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if tk := d.Steal(); tk != nil {
					(*tk)(nil)
					executed.Add(1)
				}
			}
		}()
	}
	pushed := 0
	for pushed < n {
		i := pushed
		tk := task(func(*Worker) { counts[i].Add(1) })
		if d.PushBottom(&tk) {
			pushed++
		}
		if pushed%3 == 0 {
			if tk := d.PopBottom(); tk != nil {
				(*tk)(nil)
				executed.Add(1)
			}
		}
	}
	for {
		tk := d.PopBottom()
		if tk == nil {
			break
		}
		(*tk)(nil)
		executed.Add(1)
	}
	// Drain any in-flight thief executions.
	for executed.Load() < n {
	}
	close(stop)
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

func TestPoolDoRuns(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ran := false
	p.Do(func(w *Worker) { ran = true })
	if !ran {
		t.Fatal("Do did not run the task")
	}
}

func TestPoolDoSequentialPool(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var sum int
	p.Do(func(w *Worker) {
		w.For(0, 100, 10, func(_ *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum += i
			}
		})
	})
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestJoinBothRun(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var a, b atomic.Bool
	p.Do(func(w *Worker) {
		w.Join(
			func(*Worker) { a.Store(true) },
			func(*Worker) { b.Store(true) },
		)
	})
	if !a.Load() || !b.Load() {
		t.Fatalf("join incomplete: a=%v b=%v", a.Load(), b.Load())
	}
}

func TestJoinNestedFibonacci(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var fib func(w *Worker, n int) int
	fib = func(w *Worker, n int) int {
		if n < 2 {
			return n
		}
		var x, y int
		w.Join(
			func(w *Worker) { x = fib(w, n-1) },
			func(w *Worker) { y = fib(w, n-2) },
		)
		return x + y
	}
	var got int
	p.Do(func(w *Worker) { got = fib(w, 18) })
	if got != 2584 {
		t.Fatalf("fib(18) = %d, want 2584", got)
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	// workers 0 is the nil receiver: the whole range, inline, in one call.
	for _, workers := range []int{0, 1, 2, 4, 8} {
		const n = 100000
		counts := make([]atomic.Int32, n)
		loop := func(w *Worker) {
			w.For(0, n, 0, func(w2 *Worker, lo, hi int) {
				if w == nil && (w2 != nil || lo != 0 || hi != n) {
					t.Errorf("nil receiver: body(%v, %d, %d), want (nil, 0, %d)", w2, lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
		}
		if workers == 0 {
			loop(nil)
		} else {
			p := NewPool(workers)
			p.Do(loop)
			p.Close()
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndReversedRange(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	called := false
	p.Do(func(w *Worker) {
		w.For(5, 5, 1, func(*Worker, int, int) { called = true })
		w.For(7, 3, 1, func(*Worker, int, int) { called = true })
	})
	var none *Worker
	none.For(5, 5, 1, func(*Worker, int, int) { called = true })
	none.For(7, 3, 1, func(*Worker, int, int) { called = true })
	if called {
		t.Fatal("body called on empty/reversed range")
	}
}

func TestForSumProperty(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(n uint16, grain uint8) bool {
		size := int(n%5000) + 1
		var sum atomic.Int64
		p.Do(func(w *Worker) {
			w.For(0, size, int(grain), func(_ *Worker, lo, hi int) {
				local := int64(0)
				for i := lo; i < hi; i++ {
					local += int64(i)
				}
				sum.Add(local)
			})
		})
		want := int64(size) * int64(size-1) / 2
		return sum.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyConcurrentDos(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			p.Do(func(w *Worker) {
				w.For(0, 1000, 16, func(_ *Worker, lo, hi int) {
					total.Add(int64(hi - lo))
				})
			})
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if total.Load() != 8000 {
		t.Fatalf("total = %d, want 8000", total.Load())
	}
}

func TestWorkerIDsDistinct(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	seen := map[int]bool{}
	for _, w := range p.workers {
		if w.ID() < 0 || w.ID() >= 3 {
			t.Fatalf("worker ID %d out of range", w.ID())
		}
		if seen[w.ID()] {
			t.Fatalf("duplicate worker ID %d", w.ID())
		}
		seen[w.ID()] = true
		if w.Pool() != p {
			t.Fatal("worker Pool() mismatch")
		}
	}
}

func TestGrainFor(t *testing.T) {
	if g := grainFor(0, 4); g != 1 {
		t.Fatalf("grainFor(0,4) = %d, want 1", g)
	}
	if g := grainFor(3200, 4); g != 100 {
		t.Fatalf("grainFor(3200,4) = %d, want 100", g)
	}
	if g := grainFor(100, 0); g != 12 {
		t.Fatalf("grainFor(100,0) = %d, want 12", g)
	}
}

func TestSplitmix64NonZero(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		if splitmix64(i) == 0 {
			t.Fatalf("splitmix64(%d) = 0", i)
		}
	}
}

func BenchmarkForOverhead(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	data := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Do(func(w *Worker) {
			w.For(0, len(data), 0, func(_ *Worker, lo, hi int) {
				for j := lo; j < hi; j++ {
					data[j]++
				}
			})
		})
	}
}

func BenchmarkJoinFib(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	var fib func(w *Worker, n int) int
	fib = func(w *Worker, n int) int {
		if n < 2 {
			return n
		}
		var x, y int
		w.Join(
			func(w *Worker) { x = fib(w, n-1) },
			func(w *Worker) { y = fib(w, n-2) },
		)
		return x + y
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Do(func(w *Worker) { _ = fib(w, 15) })
	}
}
