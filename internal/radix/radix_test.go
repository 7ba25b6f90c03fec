package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

var testPool = core.NewPool(4)

func on(f func(w *core.Worker)) { testPool.Do(f) }

func TestSortPairsSmall(t *testing.T) {
	keys := []uint64{5, 1, 4, 1, 3}
	vals := []int32{0, 1, 2, 3, 4}
	on(func(w *core.Worker) { SortPairs(w, keys, vals, 8) })
	wantK := []uint64{1, 1, 3, 4, 5}
	wantV := []int32{1, 3, 4, 2, 0} // stable: first 1 keeps original order
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("keys=%v vals=%v", keys, vals)
		}
	}
}

func TestSortPairsStability(t *testing.T) {
	// Only the low 8 bits are sorted; the upper bits tag original order.
	const n = 30000
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = uint64(rng.Intn(16)) | uint64(i)<<32
	}
	on(func(w *core.Worker) { SortPairs(w, keys, nil, 8) })
	for i := 1; i < n; i++ {
		a, b := keys[i-1], keys[i]
		if a&0xff > b&0xff {
			t.Fatalf("not sorted at %d", i)
		}
		if a&0xff == b&0xff && a>>32 > b>>32 {
			t.Fatalf("not stable at %d", i)
		}
	}
}

func TestSortPairsOddAndEvenPassCounts(t *testing.T) {
	for _, bits := range []int{8, 16, 24, 32, 40} {
		const n = 5000
		rng := rand.New(rand.NewSource(int64(bits)))
		keys := make([]uint64, n)
		vals := make([]int32, n)
		mask := uint64(1)<<bits - 1
		for i := range keys {
			keys[i] = rng.Uint64() & mask
			vals[i] = int32(i)
		}
		orig := append([]uint64(nil), keys...)
		on(func(w *core.Worker) { SortPairs(w, keys, vals, bits) })
		want := append([]uint64(nil), orig...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("bits=%d: keys not sorted at %d", bits, i)
			}
			if orig[vals[i]] != keys[i] {
				t.Fatalf("bits=%d: payload decoupled from key at %d", bits, i)
			}
		}
	}
}

func TestSortPairsEmptyAndSingle(t *testing.T) {
	SortPairs(nil, nil, nil, 8)
	k := []uint64{9}
	SortPairs(nil, k, []int32{1}, 8)
	if k[0] != 9 {
		t.Fatal("single element changed")
	}
}

func TestSortPairsMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SortPairs(nil, []uint64{1, 2}, []int32{1}, 8)
}

func TestSortPairsPropertyMatchesStdlib(t *testing.T) {
	f := func(raw []uint32) bool {
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r)
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		on(func(w *core.Worker) { SortPairs(w, keys, nil, 32) })
		for i := range keys {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortU32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint32, 40000)
	for i := range keys {
		keys[i] = rng.Uint32() % 100000
	}
	want := append([]uint32(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	on(func(w *core.Worker) { SortU32(w, keys, BitsFor(100000)) })
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 255: 8, 256: 9, 1 << 40: 41}
	for in, want := range cases {
		if got := BitsFor(in); got != want {
			t.Fatalf("BitsFor(%d) = %d, want %d", in, got, want)
		}
	}
}

// A warmed SortPairs allocates nothing: the counting passes and the
// ping-pong buffers live in the worker's Scratch box. One worker, so no
// steal can add a frame and the count is exact.
func TestSortPairsSteadyStateZeroAllocs(t *testing.T) {
	const n = 1 << 18
	keys := make([]uint64, n)
	vals := make([]int32, n)
	pool := core.NewPool(1)
	defer pool.Close()
	pool.Do(func(w *core.Worker) {
		allocs := testing.AllocsPerRun(5, func() {
			for i := range keys {
				keys[i] = uint64(uint32(i * 2654435761))
				vals[i] = int32(i)
			}
			SortPairs(w, keys, vals, 32)
		})
		if allocs != 0 {
			t.Errorf("steady-state SortPairs allocated %.0f per run, want 0", allocs)
		}
	})
	for i := 1; i < n; i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("keys out of order at %d", i)
		}
	}
}

func BenchmarkSortPairs1M(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(3))
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(rng.Uint32())
	}
	keys := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, src)
		on(func(w *core.Worker) { SortPairs(w, keys, nil, 32) })
	}
}
