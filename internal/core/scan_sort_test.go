package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScanExclusiveSmall(t *testing.T) {
	xs := []int{3, 1, 4, 1, 5}
	total := ScanExclusive(nil, xs)
	want := []int{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d", total)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("xs = %v, want %v", xs, want)
		}
	}
}

func TestScanInclusiveSmall(t *testing.T) {
	xs := []int{3, 1, 4, 1, 5}
	total := ScanInclusive(nil, xs)
	want := []int{3, 4, 8, 9, 14}
	if total != 14 {
		t.Fatalf("total = %d", total)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("xs = %v, want %v", xs, want)
		}
	}
}

func TestScanEmpty(t *testing.T) {
	if ScanExclusive(nil, []int{}) != 0 {
		t.Fatal("empty exclusive scan total != 0")
	}
	if ScanInclusive(nil, []int{}) != 0 {
		t.Fatal("empty inclusive scan total != 0")
	}
}

func TestScanParallelMatchesSequentialProperty(t *testing.T) {
	f := func(xs []int32, big bool) bool {
		data := make([]int64, len(xs))
		for i, x := range xs {
			data[i] = int64(x)
		}
		if big {
			// Stretch across multiple scan blocks.
			for len(data) < 3*scanGrain[int64]() {
				data = append(data, data...)
				if len(data) == 0 {
					break
				}
			}
		}
		seq := append([]int64(nil), data...)
		var seqTotal int64
		for i := range seq {
			v := seq[i]
			seq[i] = seqTotal
			seqTotal += v
		}
		var parTotal int64
		on(func(w *Worker) { parTotal = ScanExclusive(w, data) })
		if parTotal != seqTotal {
			return false
		}
		for i := range data {
			if data[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestScanExclusiveOpMaxMonoid(t *testing.T) {
	xs := []int{2, 9, 1, 7}
	maxOp := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	total := ScanExclusiveOp(nil, xs, -1<<62, maxOp)
	if total != 9 {
		t.Fatalf("total = %d", total)
	}
	want := []int{-1 << 62, 2, 9, 9}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("xs = %v, want %v", xs, want)
		}
	}
}

func TestPackIndexAndFilter(t *testing.T) {
	on(func(w *Worker) {
		idx := PackIndex(w, 10, func(i int) bool { return i%3 == 0 })
		want := []int32{0, 3, 6, 9}
		if len(idx) != len(want) {
			t.Fatalf("idx = %v", idx)
		}
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("idx = %v, want %v", idx, want)
			}
		}
	})
}

func TestPackIndexLargeKeepsOrder(t *testing.T) {
	const n = 100000
	var idx []int32
	on(func(w *Worker) {
		idx = PackIndex(w, n, func(i int) bool { return i%7 == 2 })
	})
	at := 0
	for i := 0; i < n; i++ {
		if i%7 == 2 {
			if idx[at] != int32(i) {
				t.Fatalf("idx[%d] = %d, want %d", at, idx[at], i)
			}
			at++
		}
	}
	if at != len(idx) {
		t.Fatalf("packed %d, want %d", len(idx), at)
	}
}

func TestPackIndexEmpty(t *testing.T) {
	if got := PackIndex(nil, 0, func(int) bool { return true }); len(got) != 0 {
		t.Fatalf("PackIndex(0) = %v", got)
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 100, sortSeqThreshold + 1, 50000} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(1000)
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		on(func(w *Worker) { Sort(w, xs) })
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d: sort mismatch at %d", n, i)
			}
		}
	}
}

func TestSortByStable(t *testing.T) {
	type kv struct{ k, v int }
	rng := rand.New(rand.NewSource(4))
	const n = 30000
	xs := make([]kv, n)
	for i := range xs {
		xs[i] = kv{k: rng.Intn(50), v: i}
	}
	on(func(w *Worker) {
		SortBy(w, xs, func(a, b kv) bool { return a.k < b.k })
	})
	for i := 1; i < n; i++ {
		if xs[i-1].k > xs[i].k {
			t.Fatalf("not sorted at %d", i)
		}
		if xs[i-1].k == xs[i].k && xs[i-1].v > xs[i].v {
			t.Fatalf("not stable at %d: %v before %v", i, xs[i-1], xs[i])
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(xs []int16) bool {
		data := make([]int16, len(xs))
		copy(data, xs)
		want := append([]int16(nil), data...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		on(func(w *Worker) { Sort(w, data) })
		for i := range data {
			if data[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSorted(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	on(func(w *Worker) {
		if !IsSorted(w, []int{1, 2, 2, 3}, less) {
			t.Error("sorted slice reported unsorted")
		}
		if IsSorted(w, []int{1, 3, 2}, less) {
			t.Error("unsorted slice reported sorted")
		}
		if !IsSorted(w, []int{}, less) || !IsSorted(w, []int{1}, less) {
			t.Error("trivial slices should be sorted")
		}
	})
}

func TestSeqMerge(t *testing.T) {
	a := []int{1, 3, 5}
	b := []int{2, 3, 4, 6}
	out := make([]int, 7)
	seqMerge(a, b, out, func(x, y int) bool { return x < y })
	want := []int{1, 2, 3, 3, 4, 5, 6}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merge = %v, want %v", out, want)
		}
	}
}
