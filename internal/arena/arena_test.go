package arena

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

func TestAllocZeroedAndDisjoint(t *testing.T) {
	a := &Arena{}
	xs := Alloc[int32](a, 100)
	ys := Alloc[int64](a, 50)
	if len(xs) != 100 || len(ys) != 50 {
		t.Fatalf("lengths = %d, %d; want 100, 50", len(xs), len(ys))
	}
	for i := range xs {
		xs[i] = int32(i)
	}
	for i := range ys {
		ys[i] = -1
	}
	for i := range xs {
		if xs[i] != int32(i) {
			t.Fatalf("xs[%d] = %d after writing ys: checkouts overlap", i, xs[i])
		}
	}
	// Zeroing must hold even over recycled memory.
	a.Reset()
	zs := Alloc[int64](a, 200)
	for i, z := range zs {
		if z != 0 {
			t.Fatalf("Alloc after Reset not zeroed at %d: %d", i, z)
		}
	}
}

func TestMarkReleaseRewinds(t *testing.T) {
	a := &Arena{}
	_ = Alloc[int64](a, 8)
	used := a.Stats().Used
	m := a.Mark()
	_ = Alloc[int64](a, 1000)
	if a.Stats().Used <= used {
		t.Fatal("checkout did not advance the bump offset")
	}
	a.Release(m)
	if got := a.Stats().Used; got != used {
		t.Fatalf("Used after Release = %d, want %d", got, used)
	}
	// Steady state: re-checking out the same shape must not grow.
	cap0 := a.Stats().Capacity
	for i := 0; i < 10; i++ {
		m := a.Mark()
		_ = Alloc[int64](a, 1000)
		a.Release(m)
	}
	if got := a.Stats().Capacity; got != cap0 {
		t.Fatalf("capacity grew %d -> %d across released checkouts", cap0, got)
	}
}

func TestStaleMarkPanics(t *testing.T) {
	a := &Arena{}
	m := a.Mark()
	_ = Alloc[int32](a, 4)
	a.Reset()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Release of a pre-Reset mark did not panic")
		}
		// Pin the message: debugging a stale mark starts from this
		// string, and -race builds append the allocating call site to
		// it (see sitenote_race_test.go).
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("stale-mark panic value is %T, want string", r)
		}
		want := "arena: Release of stale mark (mark gen 0, arena gen 1): arena was Reset while the checkout was live"
		if !strings.HasPrefix(msg, want) {
			t.Fatalf("stale-mark panic message\n  got:  %q\n  want prefix: %q", msg, want)
		}
	}()
	a.Release(m)
}

func TestGrowthAndConsolidation(t *testing.T) {
	a := &Arena{}
	// Force several slabs in one generation.
	for i := 0; i < 4; i++ {
		_ = Alloc[byte](a, minSlab)
	}
	st := a.Stats()
	if st.Slabs < 2 {
		t.Fatalf("expected multiple slabs after overflow, got %d", st.Slabs)
	}
	a.Reset()
	st = a.Stats()
	if st.Slabs != 1 {
		t.Fatalf("Reset did not consolidate: %d slabs", st.Slabs)
	}
	if st.Capacity < 4*minSlab {
		t.Fatalf("consolidated capacity %d < resident total %d", st.Capacity, 4*minSlab)
	}
	// The consolidated slab must now fit the whole round: no new growth.
	for i := 0; i < 4; i++ {
		_ = Alloc[byte](a, minSlab)
	}
	if got := a.Stats().Slabs; got != 1 {
		t.Fatalf("steady-state round grew to %d slabs, want 1", got)
	}
}

type pointered struct {
	p *int
	n int
}

func TestPointeredTypeFallsBackToMake(t *testing.T) {
	a := &Arena{}
	used := a.Stats().Used
	ps := Alloc[pointered](a, 16)
	if len(ps) != 16 {
		t.Fatalf("len = %d, want 16", len(ps))
	}
	if a.Stats().Used != used {
		t.Fatal("pointered checkout consumed arena bytes; must fall back to make")
	}
	// Pointer-free aggregates do use the arena.
	type flat struct{ a, b int32 }
	_ = Alloc[flat](a, 16)
	if a.Stats().Used == used {
		t.Fatal("pointer-free struct checkout did not use the arena")
	}
}

func TestNilArenaAndZeroLength(t *testing.T) {
	var a *Arena
	xs := Alloc[int32](a, 10)
	if len(xs) != 10 {
		t.Fatalf("nil-arena Alloc len = %d, want 10", len(xs))
	}
	a2 := &Arena{}
	if got := Alloc[int32](a2, 0); len(got) != 0 {
		t.Fatalf("zero-length checkout len = %d", len(got))
	}
	a2.Release(a2.Mark())
	a2.Reset()
}

func TestOfPerWorkerIdentity(t *testing.T) {
	p := sched.NewPool(2)
	defer p.Close()
	if Of(nil) != nil {
		t.Fatal("Of(nil) must be nil")
	}
	p.Do(func(w *sched.Worker) {
		a1 := Of(w)
		a2 := Of(w)
		if a1 == nil || a1 != a2 {
			t.Error("Of must return the same arena for the same worker")
		}
	})
}

// Steady-state checkout must not allocate: the whole point.
func TestAllocSteadyStateZeroAllocs(t *testing.T) {
	a := &Arena{}
	m := a.Mark()
	_ = Alloc[int64](a, 4096)
	a.Release(m)
	allocs := testing.AllocsPerRun(20, func() {
		m := a.Mark()
		s := Alloc[int64](a, 4096)
		s[0] = 1
		a.Release(m)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Alloc allocated %.1f per run, want 0", allocs)
	}
	if raceNotes {
		// -race builds record one checkout site per generation; the
		// Reset loop below bumps the generation every run.
		return
	}
	a.Reset()
	allocs = testing.AllocsPerRun(20, func() {
		a.Reset()
		_ = AllocUninit[int32](a, 1024)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+AllocUninit allocated %.1f per run, want 0", allocs)
	}
}

type scanBox struct {
	sums []int64
	tag  int
}

func TestBoxStacksLIFO(t *testing.T) {
	p := sched.NewPool(1)
	defer p.Close()
	p.Do(func(w *sched.Worker) {
		b1 := AcquireBox[scanBox](w)
		b1.tag = 1
		b1.sums = append(b1.sums[:0], 7)
		b2 := AcquireBox[scanBox](w)
		if b2 == b1 {
			t.Error("nested Acquire returned the live box")
		}
		b2.tag = 2
		ReleaseBox(w, b2)
		ReleaseBox(w, b1)
		// LIFO: next acquire sees the last release, state intact.
		b3 := AcquireBox[scanBox](w)
		if b3 != b1 || b3.tag != 1 || len(b3.sums) != 1 || b3.sums[0] != 7 {
			t.Errorf("box not recycled LIFO with state: got %+v", b3)
		}
		ReleaseBox(w, b3)
		// Steady state: acquire/release of a warmed type is alloc-free.
		allocs := testing.AllocsPerRun(20, func() {
			b := AcquireBox[scanBox](w)
			ReleaseBox(w, b)
		})
		if allocs != 0 {
			t.Errorf("steady-state box cycle allocated %.1f per run, want 0", allocs)
		}
	})
}

// Arena lifecycle under concurrency: every worker drives its own arena
// through checkout/release/reset rounds simultaneously. Run with -race
// this validates the ownership discipline (no shared metadata).
func TestPerWorkerLifecycleConcurrent(t *testing.T) {
	p := sched.NewPool(4)
	defer p.Close()
	p.Do(func(w *sched.Worker) {
		w.For(0, 4, 1, func(w *sched.Worker, _, _ int) {
			a := Of(w)
			for round := 0; round < 50; round++ {
				a.Reset()
				xs := Alloc[int32](a, 2048)
				for i := range xs {
					xs[i] = int32(i)
				}
				m := a.Mark()
				ys := AllocUninit[int64](a, 512)
				for i := range ys {
					ys[i] = int64(i) * 3
				}
				a.Release(m)
				for i := range xs {
					if xs[i] != int32(i) {
						t.Errorf("worker %d round %d: xs[%d] corrupted", w.ID(), round, i)
						return
					}
				}
			}
		})
	})
}
