// Package suffix provides the text-index substrate under the sa, lrs
// and bw benchmarks: parallel suffix-array construction by prefix
// doubling (rank pairs sorted with the radix kernel each round), LCP
// computation (Kasai), and Burrows–Wheeler transform encode/decode.
//
// Construction mirrors PBBS's suffixArray in pattern terms: Stride key
// building, D&C/Block radix sorting, and SngInd rank scatters whose
// independence is guaranteed by the suffix array being a permutation —
// exactly the "algorithmically independent, unprovable to the compiler"
// situation of the paper's Sec 5.1.
package suffix

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/radix"
)

// Array computes the suffix array of s: sa[j] is the start index of the
// j-th smallest suffix. Suffix comparison treats the end of string as
// smaller than any byte.
func Array(w *core.Worker, s []byte) []int32 { return ArrayOpts(w, s, false) }

// ArrayOpts is Array with the suite's SngInd expression switch: when
// checked is true the per-round rank scatter — whose targets are the sa
// permutation, independent by algorithmic guarantee only — goes through
// core.ScatterChecked and pays the paper's run-time uniqueness check
// (Fig 5a); otherwise it uses the unchecked (unsafe-analog) scatter.
func ArrayOpts(w *core.Worker, s []byte, checked bool) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	sa := make([]int32, n)
	rank := make([]int32, n)
	keys := make([]uint64, n)
	rvals := make([]int32, n)
	// Round 0: sort suffix indices by first byte.
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sa[i] = int32(i)
			keys[i] = uint64(s[i])
		}
	})
	radix.SortPairs(w, keys, sa, 8)
	distinct := rankValues(w, keys, rvals)
	// Scatter ranks through the sa permutation — SngInd: independence is
	// an algorithmic guarantee no dynamic checker sees cheaply (paper
	// Sec 5.1), but the certifier proves it from provenance: sa is an
	// identity fill permuted only by radix.SortPairs, so its elements are
	// exactly {0..n-1} and the unchecked scatter is Fearless under
	// certificate.
	if checked {
		if err := core.ScatterChecked(w, rank, sa, rvals); err != nil {
			panic("suffix: sa permutation violated: " + err.Error())
		}
	} else {
		core.ScatterUnchecked(w, rank, sa, rvals)
	}
	rankBits := radix.BitsFor(uint64(n))
	for k := 1; k < n && !distinct; k *= 2 {
		// Build combined keys (rank, rank+k) for the suffixes in current
		// order, then re-sort. rank+1 biases so "past end" sorts lowest.
		core.ForBlocks(w, 0, n, 0, func(jlo, jhi int) {
			for j := jlo; j < jhi; j++ {
				i := int(sa[j])
				hi := uint64(rank[i]) + 1
				var lo uint64
				if i+k < n {
					lo = uint64(rank[i+k]) + 1
				}
				keys[j] = hi<<(rankBits+1) | lo
			}
		})
		radix.SortPairs(w, keys, sa, 2*(rankBits+1))
		distinct = rankValues(w, keys, rvals)
		if checked {
			if err := core.ScatterChecked(w, rank, sa, rvals); err != nil {
				panic("suffix: sa permutation violated: " + err.Error())
			}
		} else {
			core.ScatterUnchecked(w, rank, sa, rvals)
		}
	}
	return sa
}

// rankValues computes, into rvals, the rank value for each sorted
// position j: equal keys share a rank equal to the position of their
// first occurrence. It reports whether all ranks came out distinct
// (every position is a boundary). The caller scatters rvals through
// the sa permutation into rank order; keeping that scatter at the call
// site (rather than passing sa here) is what lets the certifier see
// sa's provenance whole.
func rankValues(w *core.Worker, keys []uint64, rvals []int32) bool {
	n := len(keys)
	flags := rvals
	// Flag every boundary (a position whose key differs from its
	// predecessor's) with its own index, counting them on the way: one
	// local tally per subrange, folded into the shared total once.
	var boundaries atomic.Int64
	boundaries.Store(1) // position 0
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		var found int64
		for j := lo; j < hi; j++ {
			if j > 0 && keys[j] != keys[j-1] {
				flags[j] = int32(j)
				found++
			} else {
				flags[j] = 0
			}
		}
		boundaries.Add(found)
	})
	// rank of position j = max flag at or before j: a running-max scan.
	core.ScanExclusiveOp(w, flags, int32(0), func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	})
	// flags[j] now holds the max over [0, j); fold in j's own flag.
	// rvals aliases flags, so the exclusive-scan value is already in
	// place for non-boundary positions.
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if j > 0 && keys[j] != keys[j-1] {
				rvals[j] = int32(j)
			}
		}
	})
	return boundaries.Load() == int64(n)
}

// NaiveArray computes the suffix array by direct comparison sorting —
// the test oracle.
func NaiveArray(s []byte) []int32 {
	n := len(s)
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	core.SortBy(nil, sa, func(a, b int32) bool {
		return string(s[a:]) < string(s[b:])
	})
	return sa
}

// LCP computes, via Kasai's algorithm, lcp[j] = length of the longest
// common prefix of suffixes sa[j] and sa[j+1] (length n-1 for an
// n-suffix array). The pass is sequential O(n); the benchmarks' use of
// it is dominated by Array.
func LCP(s []byte, sa []int32) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	rank := make([]int32, n)
	for j, i := range sa {
		rank[i] = int32(j)
	}
	lcp := make([]int32, n-1)
	h := 0
	for i := 0; i < n; i++ {
		j := int(rank[i])
		if j == n-1 {
			h = 0
			continue
		}
		nxt := int(sa[j+1])
		for i+h < n && nxt+h < n && s[i+h] == s[nxt+h] {
			h++
		}
		lcp[j] = int32(h)
		if h > 0 {
			h--
		}
	}
	return lcp
}

// BWTEncode computes the Burrows–Wheeler transform of s with an
// implicit sentinel: it returns the last column L over the rotations of
// s+"\x00" and the primary index handling folded in. The returned slice
// has length len(s)+1, using byte 0 as the sentinel (inputs must not
// contain 0; seqgen.Text guarantees that).
func BWTEncode(w *core.Worker, s []byte) []byte {
	n := len(s)
	t := make([]byte, n+1)
	copy(t, s) // t[n] = 0 sentinel
	sa := Array(w, t)
	bwt := make([]byte, n+1)
	core.ForBlocks(w, 0, n+1, 0, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if i := sa[j]; i == 0 {
				bwt[j] = t[n]
			} else {
				bwt[j] = t[i-1]
			}
		}
	})
	return bwt
}

// DistinctBytes reports which byte values occur in s — the paper's
// Sec 5.2 running example of a "benign" race from PBBS's suffix-array
// code: many tasks write 1 to overlapping cells of a presence array.
// The paper explains why the unsynchronized version is not portable
// (compilers may split or fuse the racy stores), and that rustc forces
// relaxed atomic stores; Go's race detector makes the same demand, so
// the flags here are atomic stores of the same value — conflicting but
// deterministic.
func DistinctBytes(w *core.Worker, s []byte) [256]bool {
	var present [256]atomic.Bool
	core.ForBlocks(w, 0, len(s), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			present[s[i]].Store(true) // same-value racy store, made atomic
		}
	})
	var out [256]bool
	for c := range out {
		out[c] = present[c].Load()
	}
	return out
}
