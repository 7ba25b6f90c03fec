package core

import "testing"

// TestPrimitivesSteadyStateAllocs pins the heap allocations of one
// steady-state call of each sequence primitive: scratch comes from the
// worker's arena and loop bodies ride per-worker boxes, so a warmed
// call allocates nothing beyond what its row states. The pool has one
// worker — a steal would add a frame that is the scheduler's, not the
// primitive's — which makes every count exact rather than a ceiling.
func TestPrimitivesSteadyStateAllocs(t *testing.T) {
	const n = 1 << 18 // 16 scan blocks of int32
	ones := make([]int32, n)
	perm := make([]int32, n) // odd multiplier modulo a power of two
	for i := range perm {
		ones[i] = 1
		perm[i] = int32(uint32(i) * 2654435761 % n)
	}
	xs, out := make([]int32, n), make([]int32, n)
	bytes := make([]int32, n)
	for i := range bytes {
		bytes[i] = int32(i % 256)
	}
	byByte := keyedBody{keys: bytes, pos: make([]int32, n), k: 256}
	var idx []int32
	third := func(i int) bool { return i%3 == 0 }
	thirdMask := func(lo, hi int) uint64 {
		var m uint64
		for i := lo; i < hi; i++ {
			if i%3 == 0 {
				m |= 1 << uint(i-lo)
			}
		}
		return m
	}
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = int32(i)
		}
	}
	store := func(i int, slot *int32) { *slot = int32(i) }
	setIdx := func(i int) { xs[i] = int32(i) }
	setChunk := func(ci int, chunk []int32) {
		for j := range chunk {
			chunk[j] = int32(ci)
		}
	}
	sumOnes := func(lo, hi int) int {
		s := 0
		for _, x := range ones[lo:hi] {
			s += int(x)
		}
		return s
	}
	add := func(a, b int) int { return a + b }
	widen := func(x int32) int { return int(x) }
	one := func(int) int { return 1 }
	less := func(a, b int32) bool { return a < b }

	rows := []struct {
		name string
		want float64
		call func(w *Worker) bool // reports whether the result is right
	}{
		{"ForBlocks", 0, func(w *Worker) bool { ForBlocks(w, 0, n, 0, fill); return xs[n-1] == n-1 }},
		// The per-element wrappers carry their arguments in a box, so a
		// prebuilt body costs nothing per call.
		{"ForRange", 0, func(w *Worker) bool { ForRange(w, 0, n, 0, setIdx); return xs[n-1] == n-1 }},
		{"ForEachIdx", 0, func(w *Worker) bool { ForEachIdx(w, out, 0, store); return out[n-1] == n-1 }},
		{"Chunks", 0, func(w *Worker) bool { Chunks(w, xs, 1000, setChunk); return xs[n-1] == (n-1)/1000 }},
		{"Fill", 0, func(w *Worker) bool { Fill(w, xs, 7); return xs[n-1] == 7 }},
		{"CopyInto", 0, func(w *Worker) bool { CopyInto(w, out, ones); return out[n-1] == 1 }},
		{"ScanExclusive", 0, func(w *Worker) bool {
			copy(xs, ones)
			return ScanExclusive(w, xs) == n
		}},
		{"ScanInclusive", 0, func(w *Worker) bool {
			copy(xs, ones)
			return ScanInclusive(w, xs) == n
		}},
		{"PackIndexInto", 0, func(w *Worker) bool {
			idx = PackIndexInto(w, n, third, idx)
			return len(idx) == (n+2)/3
		}},
		{"PackMaskInto", 0, func(w *Worker) bool {
			idx = PackMaskInto(w, n, thirdMask, idx)
			return len(idx) == (n+2)/3
		}},
		// The allocating form: exactly its fresh result slice.
		{"PackIndex", 1, func(w *Worker) bool { return len(PackIndex(w, n, third)) == (n+2)/3 }},
		// The matrix and the offsets are arena checkouts and the body
		// rides the engine's box.
		{"CountSort", 0, func(w *Worker) bool {
			CountSort(w, n, 256, nil, byByte)
			return byByte.pos[0] == 0 && byByte.pos[n-1] == n-1
		}},
		{"ScatterUnchecked", 0, func(w *Worker) bool {
			ScatterUnchecked(w, out, perm, ones)
			return out[perm[n-1]] == 1
		}},
		// The checker's bitmap lanes are an arena checkout; the one
		// allocation is the closure that carries f through ForBlocks.
		{"IndForEach checked", 1, func(w *Worker) bool { return IndForEach(w, out, perm, store) == nil }},
		// The partials are an arena checkout and the fold rides a box.
		{"ReduceBlocks", 0, func(w *Worker) bool { return ReduceBlocks(w, n, 0, sumOnes, add) == n }},
		// Each wrapper's one allocation is the range fold that carries
		// its arguments through ReduceBlocks.
		{"Reduce", 1, func(w *Worker) bool { return Reduce(w, ones, 0, widen, add) == n }},
		{"MapReduce", 1, func(w *Worker) bool { return MapReduce(w, n, 0, one, add) == n }},
		{"Sum", 1, func(w *Worker) bool { return Sum(w, ones) == n }},
		{"MaxIndex", 1, func(w *Worker) bool { return MaxIndex(w, ones) == 0 }},
		{"IsSorted", 1, func(w *Worker) bool { return IsSorted(w, ones, less) }},
	}

	pool := NewPool(1)
	defer pool.Close()
	pool.Do(func(w *Worker) {
		for _, r := range rows { // on the pool's worker: Errorf, not Fatalf
			ok := true
			got := testing.AllocsPerRun(5, func() { ok = r.call(w) && ok })
			if got != r.want || !ok {
				t.Errorf("%s: %.0f allocs per steady-state call, want %.0f (result right: %v)", r.name, got, r.want, ok)
			}
		}
	})
}
