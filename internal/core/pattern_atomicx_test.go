package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestPatternStringsAndFear(t *testing.T) {
	wantFear := map[Pattern]Fear{
		RO: Fearless, Stride: Fearless, Block: Fearless, DC: Fearless,
		SngInd: Comfortable, RngInd: Comfortable, AW: Scared,
	}
	for _, p := range Patterns {
		if p.String() == "" || strings.HasPrefix(p.String(), "Pattern(") {
			t.Errorf("pattern %d has no name", p)
		}
		if p.Fear() != wantFear[p] {
			t.Errorf("%v fear = %v, want %v", p, p.Fear(), wantFear[p])
		}
		if p.WritePattern() == "unknown" || p.Expression() == "unknown" {
			t.Errorf("%v missing Table 3 text", p)
		}
	}
	if Pattern(99).String() == "" {
		t.Error("out-of-range pattern String empty")
	}
	if Fearless.String() != "Fearless" || Comfortable.String() != "Comfortable" || Scared.String() != "Scared" {
		t.Error("fear names wrong")
	}
}

func TestIrregularClassification(t *testing.T) {
	irregular := map[Pattern]bool{SngInd: true, RngInd: true, AW: true}
	for _, p := range Patterns {
		if p.Irregular() != irregular[p] {
			t.Errorf("%v Irregular() = %v", p, p.Irregular())
		}
	}
}

func TestSiteRegistryAndCensus(t *testing.T) {
	resetSites()
	defer resetSites()
	DeclareSite("foo", "scatter", SngInd)
	DeclareSite("foo", "scatter", SngInd) // idempotent
	DeclareSite("foo", "scan", Block)
	DeclareSite("bar", "reduce", RO)
	sites := Sites()
	if len(sites) != 3 {
		t.Fatalf("sites = %d, want 3 (dedup failed?)", len(sites))
	}
	c := TakeCensus()
	if c.Total != 3 || c.PerKind[SngInd] != 1 || c.PerKind[Block] != 1 || c.PerKind[RO] != 1 {
		t.Fatalf("census wrong: %+v", c)
	}
	if c.Irregular != 1 {
		t.Fatalf("irregular = %d, want 1", c.Irregular)
	}
	if len(c.Benches) != 2 || c.Benches[0] != "bar" || c.Benches[1] != "foo" {
		t.Fatalf("benches = %v", c.Benches)
	}
	if !c.PerBench["foo"][SngInd] || c.PerBench["bar"][SngInd] {
		t.Fatal("per-bench pattern sets wrong")
	}
}

func TestWriteMin32(t *testing.T) {
	var a atomic.Uint32
	a.Store(100)
	if !WriteMin32(&a, 50) {
		t.Fatal("WriteMin32 should have updated")
	}
	if a.Load() != 50 {
		t.Fatalf("value = %d", a.Load())
	}
	if WriteMin32(&a, 60) {
		t.Fatal("WriteMin32 should not update with larger value")
	}
	if WriteMin32(&a, 50) {
		t.Fatal("WriteMin32 should not update with equal value")
	}
}

func TestWriteMinConcurrentConverges(t *testing.T) {
	var a atomic.Uint32
	a.Store(1 << 30)
	on(func(w *Worker) {
		ForRange(w, 1, 10001, 0, func(i int) {
			WriteMin32(&a, uint32(i))
		})
	})
	if a.Load() != 1 {
		t.Fatalf("converged to %d, want 1", a.Load())
	}
}

func TestWriteMin64AndMax32(t *testing.T) {
	var b atomic.Uint32
	if !WriteMax32(&b, 7) || b.Load() != 7 || WriteMax32(&b, 2) {
		t.Fatal("WriteMax32 misbehaved")
	}
}

func TestShardedLocksGuardIncrements(t *testing.T) {
	locks := NewShardedLocks(64)
	if len(locks.locks) != 64 {
		t.Fatalf("shards = %d", len(locks.locks))
	}
	counts := make([]int, 256) // plain ints: only safe under the locks
	on(func(w *Worker) {
		ForRange(w, 0, 100000, 0, func(i int) {
			slot := i % 256
			locks.With(slot, func() { counts[slot]++ })
		})
	})
	for i, c := range counts {
		want := 100000 / 256
		if i < 100000%256 {
			want++
		}
		if c != want {
			t.Fatalf("counts[%d] = %d, want %d", i, c, want)
		}
	}
}

func TestShardedLocksRoundsUp(t *testing.T) {
	if len(NewShardedLocks(5).locks) != 8 {
		t.Fatal("shards not rounded to power of two")
	}
	if len(NewShardedLocks(0).locks) != 1 {
		t.Fatal("zero shards should clamp to 1")
	}
}

func TestCeilPow2Int(t *testing.T) {
	for in, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024} {
		if got := ceilPow2Int(in); got != want {
			t.Fatalf("ceilPow2Int(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkSum(b *testing.B) {
	xs := make([]int64, 1<<20)
	for i := range xs {
		xs[i] = int64(i)
	}
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			on(func(w *Worker) { _ = Sum(w, xs) })
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Sum(nil, xs)
		}
	})
}

func BenchmarkIndForEachCheckedVsUnchecked(b *testing.B) {
	const n = 1 << 18
	offsets := permutation(n, 11)
	out := make([]int32, n)
	body := func(i int, slot *int32) { *slot = int32(i) }
	b.Run("checked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			on(func(w *Worker) { _ = IndForEach(w, out, offsets, body) })
		}
	})
	b.Run("unchecked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			on(func(w *Worker) { IndForEachUnchecked(w, out, offsets, body) })
		}
	})
}

func BenchmarkSortBy(b *testing.B) {
	const n = 1 << 18
	src := make([]int, n)
	rngState := uint64(12345)
	for i := range src {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		src[i] = int(rngState >> 33)
	}
	xs := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		on(func(w *Worker) { Sort(w, xs) })
	}
}
