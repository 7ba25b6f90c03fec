package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reduceSizes straddle the engine's block boundaries.
var reduceSizes = []int{0, 1, 1023, 1024, 1025, 4097, 1<<16 + 3}

// blockedSumRef is the sequential reference of a blocked float sum: one
// left-to-right sum per reduceBlock-sized block, then the partials
// summed left to right from zero.
func blockedSumRef(xs []float64) float64 {
	total := 0.0
	for lo := 0; lo < len(xs); lo += reduceBlock {
		part := 0.0
		for _, x := range xs[lo:min(lo+reduceBlock, len(xs))] {
			part += x
		}
		total += part
	}
	return total
}

// onEach runs f sequentially (nil worker) and on pools of 1, 2 and 8
// workers, labelling each run.
func onEach(t *testing.T, f func(label string, w *Worker)) {
	t.Helper()
	f("nil", nil)
	for _, p := range []int{1, 2, 8} {
		pool := NewPool(p)
		pool.Do(func(w *Worker) { f(fmt.Sprintf("%d workers", p), w) })
		pool.Close()
	}
}

// floatSums returns the three float sums that must agree bit for bit:
// ReduceBlocks with a range fold, Sum, and MapReduce.
func floatSums(w *Worker, xs []float64) [3]float64 {
	add := func(a, b float64) float64 { return a + b }
	return [3]float64{
		ReduceBlocks(w, len(xs), 0, func(lo, hi int) float64 {
			s := 0.0
			for _, x := range xs[lo:hi] {
				s += x
			}
			return s
		}, add),
		Sum(w, xs),
		MapReduce(w, len(xs), 0, func(i int) float64 { return xs[i] }, add),
	}
}

// checkFloatSums compares bit for bit, except that any NaN matches any
// NaN: which operand's payload a NaN sum carries is the compiler's
// choice of operand order for a commutative add, not the association.
func checkFloatSums(t *testing.T, label string, w *Worker, xs []float64) {
	t.Helper()
	want := blockedSumRef(xs)
	for i, got := range floatSums(w, xs) {
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s, n=%d: sum %d = %v (bits %#x), want %v (bits %#x)",
				label, len(xs), i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestFloatReduceBitIdenticalAcrossWorkers sums values spanning many
// magnitudes, where any change of association changes the low bits:
// every worker count must reproduce the blocked reference exactly.
func TestFloatReduceBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	inputs := make([][]float64, len(reduceSizes))
	for k, n := range reduceSizes {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(24)-12))
		}
		inputs[k] = xs
	}
	onEach(t, func(label string, w *Worker) {
		for _, xs := range inputs {
			checkFloatSums(t, label, w, xs)
		}
	})
}

// TestMaxIndexTieAcrossBlocks plants equal maxima on both sides of a
// block boundary: the smaller index wins at every worker count.
func TestMaxIndexTieAcrossBlocks(t *testing.T) {
	cases := []struct {
		n     int
		peaks []int
		want  int
	}{
		{2048, []int{1023, 1024}, 1023},
		{4097, []int{1024, 1500, 4096}, 1024},
		{4097, []int{4096, 3072, 2047}, 2047},
		{1 << 16, []int{1<<16 - 1, 5 * reduceBlock}, 5 * reduceBlock},
	}
	onEach(t, func(label string, w *Worker) {
		for _, c := range cases {
			xs := make([]float64, c.n)
			for _, p := range c.peaks {
				xs[p] = 7
			}
			if got := MaxIndex(w, xs); got != c.want {
				t.Errorf("%s: MaxIndex with maxima at %v = %d, want %d", label, c.peaks, got, c.want)
			}
		}
	})
}

// TestIsSortedBlockBoundary plants one inversion where a block ends, and
// one at the last element.
func TestIsSortedBlockBoundary(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	onEach(t, func(label string, w *Worker) {
		for _, n := range []int{1025, 2048, 4097} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = 2 * i
			}
			if !IsSorted(w, xs, less) {
				t.Errorf("%s, n=%d: sorted input reported unsorted", label, n)
			}
			for _, at := range []int{1024, n - 1} { // xs[at] < xs[at-1]
				old := xs[at]
				xs[at] = xs[at-1] - 1
				if IsSorted(w, xs, less) {
					t.Errorf("%s, n=%d: inversion at %d/%d not caught", label, n, at-1, at)
				}
				xs[at] = old
			}
		}
	})
}

// FuzzReduceBlocks lets the fuzzer pick n and the float64 values (the
// data bytes, eight per value, repeated to length n): a pool and the
// nil worker must both match the blocked reference bit for bit.
func FuzzReduceBlocks(f *testing.F) {
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(uint32(0), []byte{})
	f.Add(uint32(1025), seed)
	f.Add(uint32(4097), seed[:24])
	f.Add(uint32(1<<16+3), seed)
	f.Add(uint32(25), []byte("00000000000000\xff\xff000001\xff\xff")) // two NaN payloads
	f.Fuzz(func(t *testing.T, n uint32, data []byte) {
		xs := make([]float64, n%(1<<17))
		if len(data) >= 8 {
			vals := make([]float64, len(data)/8)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
			for i := range xs {
				xs[i] = vals[i%len(vals)] * float64(1+i%3)
			}
		}
		checkFloatSums(t, "nil", nil, xs)
		on(func(w *Worker) { checkFloatSums(t, "pool", w, xs) })
	})
}
