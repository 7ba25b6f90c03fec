package qsort

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// shapes builds the inputs the table test sorts: each returns n keys as
// uint64, which the test converts to the key type under test.
var shapes = []struct {
	name string
	make func(r *rand.Rand, n int) []uint64
}{
	{"random", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = r.Uint64()
		}
		return xs
	}},
	// The sort benchmark's input: exponential with mean n/8, so small
	// keys repeat many times.
	{"exponential", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(r.ExpFloat64() * float64(n) / 8)
		}
		return xs
	}},
	{"all-equal", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = 7
		}
		return xs
	}},
	{"sorted", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(i)
		}
		return xs
	}},
	{"reversed", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(n - i)
		}
		return xs
	}},
	{"organ-pipe", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = uint64(min(i, n-1-i))
		}
		return xs
	}},
	{"few-unique", func(r *rand.Rand, n int) []uint64 {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = r.Uint64N(4) << 40
		}
		return xs
	}},
}

var sizes = []int{0, 1, 2, 23, 24, 25, 127, 128, 1000, 100_000}

// checkAgainstSlices sorts a copy of keys with Sort and another with
// slices.Sort and fails on the first difference.
func checkAgainstSlices[T Integer](t *testing.T, keys []T) {
	t.Helper()
	got := slices.Clone(keys)
	want := slices.Clone(keys)
	Sort(got)
	slices.Sort(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: got[%d] = %d, want %d", len(keys), i, got[i], want[i])
		}
	}
}

func convert[T Integer](xs []uint64) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = T(x)
	}
	return out
}

func TestSortMatchesSlicesSort(t *testing.T) {
	for _, sh := range shapes {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				keys := sh.make(rand.New(rand.NewPCG(uint64(n), 0x9e37)), n)
				// int32 truncation wraps the large keys to negatives, so
				// the signed leg sorts both signs.
				checkAgainstSlices(t, convert[int32](keys))
				checkAgainstSlices(t, convert[uint32](keys))
				checkAgainstSlices(t, convert[uint64](keys))
			})
		}
	}
}

// TestHeapsortFallback enters the introsort with no partition levels
// left, so every range longer than the insertion cutoff goes straight
// to heapsort.
func TestHeapsortFallback(t *testing.T) {
	for _, sh := range shapes {
		for _, n := range []int{25, 128, 1000} {
			keys := convert[uint32](sh.make(rand.New(rand.NewPCG(uint64(n), 1)), n))
			want := slices.Clone(keys)
			slices.Sort(want)
			introsort(keys, 0, false, 0)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s/%d: heapsort result differs from slices.Sort", sh.name, n)
			}
		}
	}
}

// FuzzSortAgainstSlices decodes the fuzzer's bytes as little-endian
// int32 keys (a short tail is dropped) and compares Sort with
// slices.Sort.
func FuzzSortAgainstSlices(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 128, 1, 0, 0, 0})
	seed := make([]byte, 4*200)
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], uint32(i%37))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys := make([]int32, len(raw)/4)
		for i := range keys {
			keys[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkAgainstSlices(t, keys)
	})
}

func benchSort(b *testing.B, sortFn func([]uint32), buckets int) {
	const n = 1 << 20
	r := rand.New(rand.NewPCG(1, 2))
	orig := make([]uint32, n)
	for i := range orig {
		orig[i] = uint32(r.ExpFloat64() * n / 8)
	}
	slices.Sort(orig)
	// Split the sorted keys into equal-count buckets and shuffle each,
	// the shape a sample sort's leaf sees.
	for d := 0; d < buckets; d++ {
		chunk := orig[d*n/buckets : (d+1)*n/buckets]
		r.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
	}
	keys := make([]uint32, n)
	b.SetBytes(4 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(keys, orig)
		for d := 0; d < buckets; d++ {
			sortFn(keys[d*n/buckets : (d+1)*n/buckets])
		}
	}
}

func BenchmarkSort(b *testing.B) {
	for _, buckets := range []int{1, 256} {
		b.Run(fmt.Sprintf("qsort/buckets=%d", buckets), func(b *testing.B) { benchSort(b, Sort[uint32], buckets) })
		b.Run(fmt.Sprintf("slices/buckets=%d", buckets), func(b *testing.B) { benchSort(b, slices.Sort[[]uint32], buckets) })
	}
}
