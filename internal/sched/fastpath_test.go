package sched

// Tests and benchmarks for the demand-driven fast path: lazy splitting
// in For, allocation-free join frames, and the contention-free
// park/wake protocol.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// An uncontended single-worker For must degenerate to a sequential loop:
// no lazy splits, no spawned subrange tasks — O(1) scheduler work for
// 1e6 elements instead of the eager splitter's n/grain tasks.
func TestUncontendedForSpawnsO1(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	const n = 1_000_000
	var sum int64
	p.Do(func(w *Worker) {
		w.For(0, n, 0, func(_ *Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum += int64(i)
			}
		})
	})
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	var splits, executed int64
	for _, s := range p.Stats() {
		splits += s.SplitsSpawned
		executed += s.Executed
	}
	if splits != 0 {
		t.Fatalf("uncontended 1-worker For spawned %d splits, want 0", splits)
	}
	// Only the Do body itself should have been executed as a task.
	if executed > 2 {
		t.Fatalf("executed %d tasks for an uncontended For, want <= 2", executed)
	}
}

// waitParked blocks until at least k workers of p are parked, so tests
// can establish observable demand deterministically (on a 1-CPU host the
// fresh worker goroutines may otherwise not have run yet).
func waitParked(t *testing.T, p *Pool, k int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.nparked.Load() < k {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers parked, want %d", p.nparked.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
}

// With idle workers present, the lazy splitter must engage: splits are
// spawned and the demand telemetry observes them.
func TestLazySplitEngagesUnderDemand(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	waitParked(t, p, 4)
	const n = 1 << 16
	var sum atomic.Int64
	p.Do(func(w *Worker) {
		w.For(0, n, 64, func(_ *Worker, lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
	})
	if want := int64(n) * (n - 1) / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
	var splits int64
	for _, s := range p.Stats() {
		splits += s.SplitsSpawned
	}
	if splits == 0 {
		t.Fatal("no lazy splits spawned despite 3 idle workers")
	}
	// The point of lazy splitting: far fewer tasks than eager n/grain
	// subdivision (n/grain = 1024 leaves here).
	if splits > 256 {
		t.Fatalf("%d splits spawned; lazy splitter should stay well under n/grain = %d", splits, n/64)
	}
}

// WakeSkips must count spawns that skipped the wake path: on a
// single-worker pool nobody is ever parked during a spawn.
func TestWakeSkipTelemetry(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var ran atomic.Int64
	p.Do(func(w *Worker) {
		for i := 0; i < 100; i++ {
			spawnFunc(w, func(*Worker) { ran.Add(1) })
		}
		helpUntil(w, func() bool { return ran.Load() == 100 })
	})
	var skips int64
	for _, s := range p.Stats() {
		skips += s.WakeSkips
	}
	if skips < 100 {
		t.Fatalf("WakeSkips = %d, want >= 100 (no worker can be parked during these spawns)", skips)
	}
}

// Overflow spills must be visible in the telemetry and lose no tasks.
func TestOverflowTelemetry(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	const n = dequeCapacity + 100
	var done atomic.Int64
	p.Do(func(w *Worker) {
		for i := 0; i < n; i++ {
			spawnFunc(w, func(*Worker) { done.Add(1) })
		}
		helpUntil(w, func() bool { return done.Load() == n })
	})
	var overflows int64
	for _, s := range p.Stats() {
		overflows += s.Overflows
	}
	if overflows < 100 {
		t.Fatalf("Overflows = %d, want >= 100 after spawning %d tasks through a %d-slot deque", overflows, n, dequeCapacity)
	}
}

// A panic in a branch that was genuinely stolen by another worker must
// still surface as a *TaskPanic at the fork point. The fa branch spins
// until the thief has started fb, so the test deterministically
// exercises the stolen-frame path (fb can only start on a thief while fa
// is still running).
func TestPanicPropagatesFromStolenBranch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		tp, ok := r.(*TaskPanic)
		if !ok || tp.Value != "stolen-fb" {
			t.Fatalf("recovered %v, want TaskPanic(stolen-fb)", r)
		}
	}()
	var started atomic.Bool
	p.Do(func(w *Worker) {
		w.Join(
			func(*Worker) {
				for !started.Load() {
					runtime.Gosched()
				}
			},
			func(*Worker) {
				started.Store(true)
				panic("stolen-fb")
			},
		)
	})
	t.Fatal("Join returned despite stolen branch panicking")
}

// Join frames are cached and reused per nesting depth; a panicking Join
// must leave its frame clean for the next Join at the same depth.
func TestJoinFrameReuseAfterPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.Do(func(w *Worker) {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("no panic from first Join")
				}
			}()
			w.Join(func(*Worker) {}, func(*Worker) { panic("poison") })
		}()
		// Same depth, same frame: must run cleanly with no stale panic.
		var a, b bool
		w.Join(func(*Worker) { a = true }, func(*Worker) { b = true })
		if !a || !b {
			t.Errorf("reused frame incomplete: a=%v b=%v", a, b)
		}
		if w.joinDepth != 0 {
			t.Errorf("joinDepth = %d after balanced Joins, want 0", w.joinDepth)
		}
		for d, f := range w.frames {
			if f.fb != nil || f.tp.Load() != nil {
				t.Errorf("frame %d retains state after release", d)
			}
		}
	})
}

// Stress the announce/re-check parking protocol against concurrent
// publishers: many alternating bursts from several goroutines must never
// strand a task or deadlock a parked worker. Sized to run under -race.
func TestParkWakeStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const goroutines = 4
	const rounds = 30
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for r := 0; r < rounds; r++ {
				var n atomic.Int64
				p.Do(func(w *Worker) {
					w.For(0, 500, 7, func(_ *Worker, lo, hi int) {
						n.Add(int64(hi - lo))
					})
				})
				if n.Load() != 500 {
					t.Errorf("round %d: covered %d of 500", r, n.Load())
					return
				}
				// Idle gap so workers park between bursts.
				runtime.Gosched()
			}
		}()
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
}

// Stress join-frame reuse across depths with concurrent stealing: a
// nested fork tree where every level's branch can be stolen. Sized to
// run under -race.
func TestJoinFrameStressNested(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var leaves atomic.Int64
	var rec func(w *Worker, depth int)
	rec = func(w *Worker, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		w.Join(
			func(w *Worker) { rec(w, depth-1) },
			func(w *Worker) { rec(w, depth-1) },
		)
	}
	for round := 0; round < 20; round++ {
		leaves.Store(0)
		p.Do(func(w *Worker) { rec(w, 8) })
		if leaves.Load() != 256 {
			t.Fatalf("round %d: %d leaves, want 256", round, leaves.Load())
		}
	}
}

// BenchmarkSchedJoin measures the unstolen Join fast path in isolation:
// a single worker forking and joining pre-built no-op branches. The
// acceptance bar is 0 allocs/op — the join frame, latch, and panic slot
// all ride the per-worker frame cache.
func BenchmarkSchedJoin(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	fa := func(*Worker) {}
	fb := func(*Worker) {}
	b.ReportAllocs()
	b.ResetTimer()
	p.Do(func(w *Worker) {
		for i := 0; i < b.N; i++ {
			w.Join(fa, fb)
		}
	})
}

// BenchmarkSchedFor measures an uncontended parallel loop end to end
// (including Pool.Do submission) and reports how many split tasks the
// lazy splitter spawned per op — ~0 on a single-worker pool, versus
// n/grain for an eager splitter.
func BenchmarkSchedFor(b *testing.B) {
	p := NewPool(1)
	defer p.Close()
	data := make([]int64, 1<<20)
	var before int64
	for _, s := range p.Stats() {
		before += s.SplitsSpawned
	}
	b.ReportAllocs()
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
	b.StopTimer()
	var after int64
	for _, s := range p.Stats() {
		after += s.SplitsSpawned
	}
	b.ReportMetric(float64(after-before)/float64(b.N), "splits/op")
}
