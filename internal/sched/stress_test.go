package sched

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// spawnFunc queues f as a detached task on w's deque, or on the
// injector when the deque is full; the caller waits with helpUntil.
func spawnFunc(w *Worker, f func(w *Worker)) {
	t := task(f)
	w.spawn(&t)
}

// helpUntil runs pool work on w until cond reports true, the way
// Join's waitFrame does for one frame.
func helpUntil(w *Worker, cond func() bool) {
	for !cond() {
		if t := w.next(); t != nil {
			w.nExecuted.Add(1)
			(*t)(w)
			continue
		}
		runtime.Gosched()
	}
}

func TestSpawnTaskManyComplete(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 5000
	var done atomic.Int64
	p.Do(func(w *Worker) {
		for i := 0; i < n; i++ {
			spawnFunc(w, func(*Worker) { done.Add(1) })
		}
		helpUntil(w, func() bool { return done.Load() == n })
	})
	if done.Load() != n {
		t.Fatalf("completed %d of %d spawned tasks", done.Load(), n)
	}
}

func TestSpawnOverflowsToInjector(t *testing.T) {
	// Spawning more tasks than the deque holds must route the excess to
	// the injector, not lose it.
	p := NewPool(2)
	defer p.Close()
	const n = dequeCapacity + 500
	var done atomic.Int64
	p.Do(func(w *Worker) {
		for i := 0; i < n; i++ {
			spawnFunc(w, func(*Worker) { done.Add(1) })
		}
		helpUntil(w, func() bool { return done.Load() == n })
	})
	if done.Load() != n {
		t.Fatalf("completed %d of %d tasks across deque overflow", done.Load(), n)
	}
}

func TestHelpUntilDrivesOwnDeque(t *testing.T) {
	// With one worker, the spawned task can only run if helpUntil
	// executes it from the worker's own deque.
	p := NewPool(1)
	defer p.Close()
	var hit atomic.Bool
	p.Do(func(w *Worker) {
		spawnFunc(w, func(*Worker) { hit.Store(true) })
		helpUntil(w, func() bool { return hit.Load() })
	})
	if !hit.Load() {
		t.Fatal("task never ran")
	}
}

func TestDeeplyNestedFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.Do(func(w *Worker) {
		w.For(0, 10, 1, func(w *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				w.For(0, 10, 1, func(w *Worker, lo2, hi2 int) {
					for j := lo2; j < hi2; j++ {
						w.For(0, 10, 1, func(_ *Worker, lo3, hi3 int) {
							total.Add(int64(hi3 - lo3))
						})
					}
				})
			}
		})
	})
	if total.Load() != 1000 {
		t.Fatalf("nested For total = %d, want 1000", total.Load())
	}
}

func TestPoolSurvivesWorkBursts(t *testing.T) {
	// Alternating bursts and idle periods exercise parking/unparking.
	p := NewPool(3)
	defer p.Close()
	for burst := 0; burst < 20; burst++ {
		var n atomic.Int64
		p.Do(func(w *Worker) {
			w.For(0, 1000, 10, func(_ *Worker, lo, hi int) {
				n.Add(int64(hi - lo))
			})
		})
		if n.Load() != 1000 {
			t.Fatalf("burst %d incomplete: %d", burst, n.Load())
		}
	}
}

func BenchmarkGrainSweep(b *testing.B) {
	// Ablation: recursive-split grain size vs overhead for a cheap body.
	p := NewPool(0)
	defer p.Close()
	data := make([]int64, 1<<18)
	for _, grain := range []int{1, 64, 1024, 16384} {
		b.Run(benchName("grain", grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Do(func(w *Worker) {
					w.For(0, len(data), grain, func(_ *Worker, lo, hi int) {
						for j := lo; j < hi; j++ {
							data[j]++
						}
					})
				})
			}
		})
	}
}

func benchName(prefix string, v int) string {
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + "-" + digits
}

func BenchmarkSpawnJoinOverhead(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Do(func(w *Worker) {
			w.Join(func(*Worker) {}, func(*Worker) {})
		})
	}
}

func TestPanicPropagatesFromDo(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *TaskPanic", r, r)
		}
		if tp.Value != "boom" {
			t.Fatalf("panic value %v", tp.Value)
		}
		if tp.Error() == "" {
			t.Fatal("empty TaskPanic error")
		}
	}()
	p.Do(func(w *Worker) { panic("boom") })
	t.Fatal("Do returned despite panic")
}

func TestPanicPropagatesFromJoinBranches(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, branch := range []string{"fa", "fb"} {
		branch := branch
		func() {
			defer func() {
				r := recover()
				tp, ok := r.(*TaskPanic)
				if !ok || tp.Value != branch {
					t.Fatalf("branch %s: recovered %v", branch, r)
				}
			}()
			p.Do(func(w *Worker) {
				w.Join(
					func(*Worker) {
						if branch == "fa" {
							panic("fa")
						}
					},
					func(*Worker) {
						if branch == "fb" {
							panic("fb")
						}
					},
				)
			})
			t.Fatalf("branch %s: no panic surfaced", branch)
		}()
	}
}

func TestPanicInForBody(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic surfaced from For body")
		}
	}()
	p.Do(func(w *Worker) {
		w.For(0, 1000, 10, func(_ *Worker, lo, hi int) {
			if lo <= 500 && 500 < hi {
				panic("in body")
			}
		})
	})
}

func TestPoolUsableAfterPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.Do(func(w *Worker) { panic("first") })
	}()
	ran := false
	p.Do(func(w *Worker) { ran = true })
	if !ran {
		t.Fatal("pool dead after recovered panic")
	}
}

func TestPoolStatsAccounting(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const tasks = 2000
	var done atomic.Int64
	p.Do(func(w *Worker) {
		for i := 0; i < tasks; i++ {
			spawnFunc(w, func(*Worker) { done.Add(1) })
		}
		helpUntil(w, func() bool { return done.Load() == tasks })
	})
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d workers", len(stats))
	}
	var executed int64
	for _, s := range stats {
		executed += s.Executed
		if s.Executed < 0 || s.Stolen < 0 || s.Parked < 0 {
			t.Fatalf("negative counter: %+v", s)
		}
	}
	// Every spawned task plus the Do body itself was executed somewhere.
	if executed < tasks+1 {
		t.Fatalf("executed %d, want >= %d", executed, tasks+1)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Do(func(w *Worker) {})
	p.Close()
	p.Close() // second close must not panic or hang
}

// Do on a closed pool must panic, not queue a task that no worker is
// left to run and block on it for good.
func TestDoOnClosedPoolPanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		p.Do(func(*Worker) {})
	}()
	select {
	case r := <-got:
		if msg, _ := r.(string); !strings.Contains(msg, "closed pool") {
			t.Fatalf("Do on a closed pool raised %v, want a panic naming the closed pool", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do on a closed pool still blocked after 2s")
	}
}

// Close must return only after every worker has left its run loop: a
// detached task still running when Close is called finishes first.
// (A goroutine count cannot show this: a worker that has signalled its
// exit is still counted until its goroutine is torn down.)
func TestCloseWaitsForWorkers(t *testing.T) {
	for i := 0; i < 5; i++ {
		p := NewPool(4)
		var finished atomic.Bool
		p.Do(func(w *Worker) {
			spawnFunc(w, func(*Worker) {
				time.Sleep(10 * time.Millisecond)
				finished.Store(true)
			})
		})
		p.Close()
		if !finished.Load() {
			t.Fatalf("cycle %d: Close returned while a worker was still running a task", i)
		}
	}
}
