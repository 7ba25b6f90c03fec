package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// testPool is a shared 4-worker pool for the package tests.
var testPool = NewPool(4)

// on runs f on the shared test pool and waits for it.
func on(f func(w *Worker)) { testPool.Do(f) }

func TestRunDefaultPool(t *testing.T) {
	// The default pool lives for the process; the test that creates it
	// closes it, or the binary ends with its workers still parked.
	t.Cleanup(func() {
		if p := defaultPool.Swap(nil); p != nil {
			p.Close()
		}
	})
	var ran atomic.Bool
	Run(func(w *Worker) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("Run did not execute")
	}
	// Second Run reuses the default pool.
	Run(func(w *Worker) {})
}

func TestModeRoundTrip(t *testing.T) {
	defer SetMode(ModeUnchecked)
	for _, m := range []Mode{ModeUnchecked, ModeChecked, ModeSynchronized} {
		SetMode(m)
		if GetMode() != m {
			t.Fatalf("GetMode() = %v after SetMode(%v)", GetMode(), m)
		}
	}
	if ModeUnchecked.String() != "unchecked" || ModeChecked.String() != "checked" ||
		ModeSynchronized.String() != "synchronized" || Mode(99).String() != "invalid" {
		t.Fatal("Mode.String values wrong")
	}
}

func TestForRangeParallelAndSequential(t *testing.T) {
	for _, par := range []bool{false, true} {
		got := make([]int, 1000)
		body := func(i int) { got[i] = i * 2 }
		if par {
			on(func(w *Worker) { ForRange(w, 0, len(got), 0, body) })
		} else {
			ForRange(nil, 0, len(got), 0, body)
		}
		for i, v := range got {
			if v != i*2 {
				t.Fatalf("par=%v: got[%d] = %d", par, i, v)
			}
		}
	}
}

func TestForEachIdxStride(t *testing.T) {
	xs := make([]int, 5000)
	on(func(w *Worker) {
		ForEachIdx(w, xs, 0, func(i int, x *int) { *x = i * i })
	})
	for i, v := range xs {
		if v != i*i {
			t.Fatalf("xs[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachIdxEmptyAndSingle(t *testing.T) {
	ForEachIdx(nil, []int{}, 0, func(int, *int) { t.Fatal("called on empty") })
	one := []int{7}
	on(func(w *Worker) {
		ForEachIdx(w, one, 0, func(i int, x *int) { *x = 42 })
	})
	if one[0] != 42 {
		t.Fatal("single element not visited")
	}
}

func TestChunksBlock(t *testing.T) {
	xs := make([]int, 103)
	var calls atomic.Int32
	on(func(w *Worker) {
		Chunks(w, xs, 10, func(ci int, chunk []int) {
			calls.Add(1)
			for j := range chunk {
				chunk[j] = ci
			}
		})
	})
	if calls.Load() != 11 {
		t.Fatalf("chunks calls = %d, want 11", calls.Load())
	}
	for i, v := range xs {
		if v != i/10 {
			t.Fatalf("xs[%d] = %d, want %d", i, v, i/10)
		}
	}
}

func TestChunksZeroSizeClamped(t *testing.T) {
	xs := make([]int, 5)
	n := 0
	Chunks(nil, xs, 0, func(ci int, chunk []int) { n += len(chunk) })
	if n != 5 {
		t.Fatalf("visited %d elements, want 5", n)
	}
}

func TestFillTabulateCopy(t *testing.T) {
	on(func(w *Worker) {
		xs := make([]int, 777)
		Fill(w, xs, 9)
		for _, v := range xs {
			if v != 9 {
				t.Fatal("Fill missed an element")
			}
		}
		tab := Tabulate(w, 100, func(i int) int { return 3 * i })
		for i, v := range tab {
			if v != 3*i {
				t.Fatalf("Tabulate[%d] = %d", i, v)
			}
		}
		dst := make([]int, 100)
		CopyInto(w, dst, tab)
		for i := range dst {
			if dst[i] != tab[i] {
				t.Fatal("CopyInto mismatch")
			}
		}
	})
}

func TestCopyIntoPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CopyInto(nil, make([]int, 1), make([]int, 2))
}

func TestSumMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 100000)
	var want int64
	for i := range xs {
		xs[i] = rng.Int63n(1000)
		want += xs[i]
	}
	var got int64
	on(func(w *Worker) { got = Sum(w, xs) })
	if got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	if s := Sum(nil, xs); s != want {
		t.Fatalf("sequential Sum = %d, want %d", s, want)
	}
}

func TestReduceDeterministicFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	var a, b float64
	on(func(w *Worker) { a = Sum(w, xs) })
	on(func(w *Worker) { b = Sum(w, xs) })
	if a != b {
		t.Fatalf("float Sum not deterministic: %v vs %v", a, b)
	}
}

func TestMinMaxCountAll(t *testing.T) {
	xs := []int{5, -3, 9, 0, 7, -3, 9}
	on(func(w *Worker) {
		if m := Max(w, xs); m != 9 {
			t.Errorf("Max = %d", m)
		}
	})
}

func TestMaxIndexTiesSmallest(t *testing.T) {
	xs := []int{1, 4, 2, 4, 3}
	on(func(w *Worker) {
		if i := MaxIndex(w, xs); i != 1 {
			t.Errorf("MaxIndex = %d, want 1", i)
		}
	})
	big := make([]int, 100000)
	big[70000] = 5
	big[70001] = 5
	on(func(w *Worker) {
		if i := MaxIndex(w, big); i != 70000 {
			t.Errorf("MaxIndex = %d, want 70000", i)
		}
	})
}

func TestMaxPanicsEmpty(t *testing.T) {
	for name, f := range map[string]func(){
		"Max":      func() { Max(nil, []int{}) },
		"MaxIndex": func() { MaxIndex(nil, []int{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on empty slice", name)
				}
			}()
			f()
		}()
	}
}

func TestMapReduceIndexSpace(t *testing.T) {
	var got int
	on(func(w *Worker) {
		got = MapReduce(w, 10000, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	})
	if got != 10000*9999/2 {
		t.Fatalf("MapReduce = %d", got)
	}
}

func TestReducePropertyMatchesFold(t *testing.T) {
	f := func(xs []int32) bool {
		var want int64
		for _, x := range xs {
			want += int64(x)
		}
		var got int64
		on(func(w *Worker) {
			got = Reduce(w, xs, 0, func(x int32) int64 { return int64(x) }, func(a, b int64) int64 { return a + b })
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicCountsTrackInvocations(t *testing.T) {
	defer EnableDynamicCensus(EnableDynamicCensus(true))
	ResetDynamicCounts()
	ForRange(nil, 0, 10, 0, func(int) {})
	Chunks(nil, make([]int, 10), 2, func(int, []int) {})
	IndForEachUnchecked(nil, make([]int, 4), []int32{0, 1, 2, 3}, func(int, *int) {})
	m := DynamicCounts()
	if m[Stride] < 1 || m[Block] < 1 || m[SngInd] < 1 {
		t.Fatalf("dynamic counts missing: %v", m)
	}
	ResetDynamicCounts()
	if DynamicCounts()[Stride] != 0 {
		t.Fatal("reset did not zero counters")
	}
}
