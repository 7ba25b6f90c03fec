// Package suffix provides the text-index substrate under the sa, lrs
// and bw benchmarks: parallel suffix-array construction by prefix
// doubling, LCP computation (Kasai), and Burrows–Wheeler transform
// encode/decode.
//
// Construction mirrors PBBS's suffixArray in pattern terms: Stride key
// building, D&C/Block radix sorting, and SngInd rank scatters whose
// independence is guaranteed by the suffix array being a permutation —
// exactly the "algorithmically independent, unprovable to the compiler"
// situation of the paper's Sec 5.1. Like PBBS, it sorts all suffixes
// once and afterwards re-sorts only the groups still tied.
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
//
// The first sort orders the suffixes by their first h characters at
// once: each byte present in s is coded 1..σ (0 is "past the end"), and
// h = 64/BitsFor(σ) codes pack into one radix key — 12 characters of
// a 26-letter text, 7 of arbitrary bytes. Suffixes tied on those h
// characters form groups of adjacent sa positions, and each group's
// rank is its start position. Each later round k = h, 2h, 4h, ...
// re-sorts only the positions still in a group of two or more, by
// (group start, rank of the suffix k further on), in place inside sa
// through radix.SortPairsAt; it ends when no such position is left.
// The rank scatter stays full-length every round, so checked mode
// re-validates the whole permutation each time, as Fig 5a measures.
func ArrayOpts(w *core.Worker, s []byte, checked bool) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	var code [256]uint64
	sigma := uint64(0)
	for c, ok := range DistinctBytes(w, s) {
		if ok {
			sigma++
			code[c] = sigma
		}
	}
	cb := radix.BitsFor(sigma)
	h := 64 / cb
	keyBits := h * cb
	keyMask := ^uint64(0) >> (64 - keyBits)
	sa := make([]int32, n)
	rank := make([]int32, n)
	grp := make([]int32, n)
	keys := make([]uint64, n)
	at := make([]int32, n)
	spare := make([]int32, n)
	// Packed first sort: key i holds the codes of s[i : i+h], rolled
	// forward one character per suffix.
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		var key uint64
		for t := lo; t < lo+h; t++ {
			key <<= cb
			if t < n {
				key |= code[s[t]]
			}
		}
		for i := lo; i < hi; i++ {
			sa[i] = int32(i)
			keys[i] = key
			key <<= cb
			if i+h < n {
				key |= code[s[i+h]]
			}
			key &= keyMask
		}
	})
	radix.SortPairs(w, keys, sa, keyBits)
	groupStarts(w, keys, nil, grp, grp)
	// Scatter ranks through the sa permutation — SngInd: independence is
	// an algorithmic guarantee no dynamic checker sees cheaply (paper
	// Sec 5.1), but the certifier proves it from provenance: sa is an
	// identity fill permuted only by radix.SortPairs/SortPairsAt, so its
	// elements are exactly {0..n-1} and the unchecked scatter is
	// Fearless under certificate.
	if checked {
		if err := core.ScatterChecked(w, rank, sa, grp); err != nil {
			panic("suffix: sa permutation violated: " + err.Error())
		}
	} else {
		core.ScatterUnchecked(w, rank, sa, grp)
	}
	at = core.PackMaskInto(w, n, tied(keys), at)
	rankBits := radix.BitsFor(uint64(n))
	for k := h; len(at) > 0; k *= 2 {
		// Key each unresolved position by (group start, rank k further
		// on); rank+1 biases so "past end" sorts lowest.
		ck := keys[:len(at)]
		core.ForBlocks(w, 0, len(at), 0, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				j := at[t]
				i := int(sa[j])
				var next uint64
				if i+k < n {
					next = uint64(rank[i+k]) + 1
				}
				ck[t] = uint64(grp[j])<<rankBits | next
			}
		})
		radix.SortPairsAt(w, ck, sa, at, 2*rankBits)
		groupStarts(w, ck, at, spare[:len(at)], grp)
		if checked {
			if err := core.ScatterChecked(w, rank, sa, grp); err != nil {
				panic("suffix: sa permutation violated: " + err.Error())
			}
		} else {
			core.ScatterUnchecked(w, rank, sa, grp)
		}
		at, spare = core.PackInto(w, at, tied(ck), spare), at
	}
	return sa
}

// tied is the PackMaskInto predicate over sorted keys: bit t-lo is set
// when key t equals a neighbour's, i.e. its suffix is still in a group
// of two or more.
func tied(keys []uint64) func(lo, hi int) uint64 {
	return func(lo, hi int) uint64 {
		var word uint64
		for t := lo; t < hi; t++ {
			if (t > 0 && keys[t] == keys[t-1]) || (t+1 < len(keys) && keys[t+1] == keys[t]) {
				word |= 1 << (t - lo)
			}
		}
		return word
	}
}

// groupStarts writes, for each sorted key t, the sa position where its
// run of equal keys starts into grp at t's own position: at[t], or t
// itself when at is nil. at must be strictly increasing (it is the
// SortPairsAt position vector), so a running max over the boundary
// positions finds each run's start. flags is scratch of len(keys); it
// may alias grp when at is nil. The caller scatters grp through the sa
// permutation into rank order; keeping that scatter at the call site
// (rather than passing sa here) is what lets the certifier see sa's
// provenance whole.
func groupStarts(w *core.Worker, keys []uint64, at, flags, grp []int32) {
	m := len(keys)
	core.ForBlocks(w, 0, m, 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			if t > 0 && keys[t] == keys[t-1] {
				flags[t] = 0
			} else if at == nil {
				flags[t] = int32(t)
			} else {
				flags[t] = at[t]
			}
		}
	})
	// flags[t] becomes the max boundary position over [0, t).
	core.ScanExclusiveOp(w, flags, int32(0), func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	})
	core.ForBlocks(w, 0, m, 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			p := int32(t)
			if at != nil {
				p = at[t]
			}
			start := flags[t]
			if t == 0 || keys[t] != keys[t-1] {
				start = p
			}
			grp[p] = start //lint:scared group-start update: p is t or at[t], and radix.SortPairsAt has just panicked unless at is strictly increasing, so each t writes its own slot (TestArrayMatchesDC3Table fails if two t share one)
		}
	})
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
// n-suffix array). The pass is sequential O(n); on the lrs benchmark
// text it takes about a seventh of the time of the Array call before it.
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
