// Package seqgen generates the synthetic inputs used across the suite,
// substituting for the paper's input files: exponential/uniform integer
// sequences (PBBS's sequenceData), Zipfian text with planted repeated
// passages (substituting for the wiki input of bw/lrs/sa), and
// Kuzmin-distributed points (the dr input). All generators are
// deterministic functions of an explicit seed and are parallel-friendly:
// element i depends only on (seed, i).
package seqgen

import (
	"math"

	"repro/internal/core"
)

// Hash64 is the 64-bit hash function PBBS uses for data generation, as
// reproduced in the paper's Appendix A (Listing 10).
func Hash64(v uint64) uint64 {
	v = v * 3935559000370003845
	v = v + 2691343689449507681
	v ^= v >> 21
	v ^= v << 37
	v ^= v >> 4
	v = v * 4768777513237032717
	v ^= v << 20
	v ^= v >> 41
	v ^= v << 5
	return v
}

// HashTask replaces *e with Hash64 of its value — the microbenchmark
// task of the paper's Appendix A, used by the Fig 6 reproduction.
func HashTask(e *uint64) { *e = Hash64(*e) }

// Rng is a stateless, splittable random source: every draw is a pure
// function of the seed and an index, so parallel tasks can draw
// independent values without sharing state.
type Rng struct{ seed uint64 }

// NewRng returns a source derived from seed.
func NewRng(seed uint64) Rng {
	return Rng{seed: Hash64(seed ^ 0x9e3779b97f4a7c15)}
}

// U64 returns the i-th 64-bit draw.
func (r Rng) U64(i uint64) uint64 { return Hash64(r.seed ^ Hash64(i+1)) }

// Intn returns the i-th draw in [0, n).
func (r Rng) Intn(i uint64, n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.U64(i) % uint64(n))
}

// Float64 returns the i-th draw in [0, 1).
func (r Rng) Float64(i uint64) float64 {
	return float64(r.U64(i)>>11) / float64(1<<53)
}

// Fork returns an independent source for stream k.
func (r Rng) Fork(k uint64) Rng { return Rng{seed: Hash64(r.seed + 0x632be59bd9b4e019*(k+1))} }

// UniformU64 fills a length-n slice with uniform 64-bit values.
func UniformU64(w *core.Worker, n int, seed uint64) []uint64 {
	r := NewRng(seed)
	return core.Tabulate(w, n, func(i int) uint64 { return r.U64(uint64(i)) })
}

// ExponentialInts generates PBBS's "exponential" key distribution: keys
// concentrate near zero with a long tail, producing the duplicate-heavy
// inputs sort/dedup/hist/isort are evaluated on. The mean of the
// distribution is roughly n/8, matching PBBS's expDist.
func ExponentialInts(w *core.Worker, n int, seed uint64) []uint32 {
	r := NewRng(seed)
	mean := float64(n) / 8
	if mean < 1 {
		mean = 1
	}
	return core.Tabulate(w, n, func(i int) uint32 {
		u := r.Float64(uint64(i))
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		v := -math.Log(1-u) * mean
		if v >= float64(math.MaxUint32) {
			v = float64(math.MaxUint32) - 1
		}
		return uint32(v)
	})
}

// Point is a point in the plane.
type Point struct{ X, Y float64 }

// KuzminPoints generates n points following the Kuzmin disk distribution
// used by PBBS's Delaunay inputs: heavily clustered near the origin with
// a heavy radial tail, stressing point location and refinement.
func KuzminPoints(w *core.Worker, n int, seed uint64) []Point {
	r := NewRng(seed)
	return core.Tabulate(w, n, func(i int) Point {
		u := r.Float64(uint64(2 * i))
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		// Kuzmin radial CDF: F(r) = 1 - 1/sqrt(1+r^2)  =>  r = sqrt(1/(1-u)^2 - 1)
		d := 1 - u
		rad := math.Sqrt(1/(d*d) - 1)
		theta := 2 * math.Pi * r.Float64(uint64(2*i+1))
		return Point{X: rad * math.Cos(theta), Y: rad * math.Sin(theta)}
	})
}

// zipfWords is the synthetic vocabulary for text generation.
const zipfVocabSize = 4096

// Text generates n bytes of synthetic natural-ish text: space-separated
// words drawn from a Zipfian vocabulary, with repeated passages planted
// at deterministic positions so that longest-repeated-substring queries
// (lrs) have non-trivial answers, as real wiki text does. The output
// contains only bytes in ['a','z'] and ' '.
func Text(w *core.Worker, n int, seed uint64) []byte {
	if n <= 0 {
		return nil
	}
	r := NewRng(seed)
	// Build the vocabulary: word lengths 2..9, letters uniform.
	vocab := make([][]byte, zipfVocabSize)
	vr := r.Fork(1)
	for wi := range vocab {
		wl := 2 + vr.Intn(uint64(2*wi), 8)
		word := make([]byte, wl)
		for k := 0; k < wl; k++ {
			word[k] = byte('a' + vr.Intn(uint64(wi*16+k+1), 26))
		}
		vocab[wi] = word
	}
	// Zipf sampling via inverse-power transform: index ~ floor(V * u^2)
	// biases heavily toward low indices (an s≈2-flavored skew that is
	// cheap and deterministic).
	out := make([]byte, 0, n+16)
	tr := r.Fork(2)
	var draw uint64
	for len(out) < n {
		u := tr.Float64(draw)
		draw++
		idx := int(float64(zipfVocabSize) * u * u)
		if idx >= zipfVocabSize {
			idx = zipfVocabSize - 1
		}
		out = append(out, vocab[idx]...)
		out = append(out, ' ')
	}
	out = out[:n]
	// Plant repeated passages: copy a chunk from the first quarter into
	// the third quarter so lrs has a long deterministic repeat.
	if n >= 64 {
		plen := n / 16
		if plen > 4096 {
			plen = 4096
		}
		src := n / 8
		dst := n / 2
		if src+plen <= n && dst+plen <= n && src+plen <= dst {
			copy(out[dst:dst+plen], out[src:src+plen])
		}
	}
	// Avoid zero bytes (reserved as suffix-array sentinel).
	core.ForEachIdx(w, out, 0, func(_ int, b *byte) {
		if *b == 0 {
			*b = ' '
		}
	})
	return out
}
