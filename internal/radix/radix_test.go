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

// sortAtInput builds an m-of-n position vector (every index whose hash
// picks it), random keys for those positions, and vals[i] = i.
func sortAtInput(n int, seed int64) (keys []uint64, vals, at []int32) {
	rng := rand.New(rand.NewSource(seed))
	vals = make([]int32, n)
	for i := range vals {
		vals[i] = int32(i)
		if rng.Intn(3) == 0 {
			at = append(at, int32(i))
		}
	}
	keys = make([]uint64, len(at))
	for t := range keys {
		keys[t] = uint64(rng.Intn(500))
	}
	return keys, vals, at
}

// SortPairsAt equals a stable sort of the gathered values, and leaves
// every position outside at untouched — sequentially and on a pool
// large enough to split every phase.
func TestSortPairsAtMatchesStableSortOfGathered(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 60000} {
		for _, pooled := range []bool{false, true} {
			keys, vals, at := sortAtInput(n, int64(n))
			type kv struct {
				k uint64
				v int32
			}
			want := make([]kv, len(at))
			for c, p := range at {
				want[c] = kv{keys[c], vals[p]}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })
			if pooled {
				on(func(w *core.Worker) { SortPairsAt(w, keys, vals, at, 9) })
			} else {
				SortPairsAt(nil, keys, vals, at, 9)
			}
			inAt := make([]bool, n)
			for c, p := range at {
				inAt[p] = true
				if keys[c] != want[c].k || vals[p] != want[c].v {
					t.Fatalf("n=%d pooled=%v: entry %d = (%d, %d), want (%d, %d)", n, pooled, c, keys[c], vals[p], want[c].k, want[c].v)
				}
			}
			for i := range vals {
				if !inAt[i] && vals[i] != int32(i) {
					t.Fatalf("n=%d pooled=%v: vals[%d] = %d outside at was written", n, pooled, i, vals[i])
				}
			}
		}
	}
}

// A position vector that is not strictly increasing inside vals makes
// the write-back a racy or out-of-range scatter, so SortPairsAt must
// panic on it before writing anything.
func TestSortPairsAtRejectsBadPositions(t *testing.T) {
	for name, at := range map[string][]int32{
		"duplicate":    {1, 4, 4, 9},
		"decreasing":   {1, 9, 4, 12},
		"out-of-range": {1, 4, 9, 16},
		"negative":     {-1, 4, 9, 12},
	} {
		for _, pooled := range []bool{false, true} {
			vals := make([]int32, 16)
			for i := range vals {
				vals[i] = int32(100 + i)
			}
			keys := []uint64{3, 2, 1, 0}
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				if pooled {
					on(func(w *core.Worker) { SortPairsAt(w, keys, vals, at, 8) })
				} else {
					SortPairsAt(nil, keys, vals, at, 8)
				}
				return false
			}()
			if !panicked {
				t.Errorf("%s (pooled %v): no panic", name, pooled)
			}
			for i, v := range vals {
				if v != int32(100+i) {
					t.Errorf("%s (pooled %v): vals[%d] written before the panic", name, pooled, i)
				}
			}
			if keys[0] != 3 || keys[3] != 0 {
				t.Errorf("%s (pooled %v): keys sorted before the panic", name, pooled)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("keys/at length mismatch: no panic")
		}
	}()
	SortPairsAt(nil, []uint64{1}, []int32{0, 1}, []int32{0, 1}, 8)
}

// A warmed SortPairsAt allocates nothing: the gathered copy and its
// loop body live in the same Scratch box as SortPairs'.
func TestSortPairsAtSteadyStateZeroAllocs(t *testing.T) {
	keys, vals, at := sortAtInput(1<<17, 5)
	src := append([]uint64(nil), keys...)
	pool := core.NewPool(1)
	defer pool.Close()
	pool.Do(func(w *core.Worker) {
		allocs := testing.AllocsPerRun(5, func() {
			copy(keys, src)
			SortPairsAt(w, keys, vals, at, 9)
		})
		if allocs != 0 {
			t.Errorf("steady-state SortPairsAt allocated %.0f per run, want 0", allocs)
		}
	})
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
