package core

import (
	"slices"
	"sort"
)

// Parallel stable merge sort — the divide-and-conquer (D&C) pattern of
// paper Listing 9: split, recursively sort halves via Join, then merge
// (itself parallelized by binary-search splitting). Tasks work on
// disjoint halves, so the construction is Fearless.

// sortSeqThreshold is the subproblem size below which the sort runs
// sequentially (Listing 9's "go sequential" threshold).
const sortSeqThreshold = 4096

// mergeSeqThreshold is the combined size below which merges are serial.
const mergeSeqThreshold = 8192

// SortBy sorts xs in place, in parallel, using less as a strict weak
// ordering. The sort is stable.
func SortBy[T any](w *Worker, xs []T, less func(a, b T) bool) {
	countDyn(DC)
	if len(xs) < 2 {
		return
	}
	if w == nil || len(xs) <= sortSeqThreshold {
		sortLeaf(xs, less)
		return
	}
	buf := make([]T, len(xs))
	mergeSortInto(w, xs, buf, false, less)
}

// sortLeaf is the sequential stable sort under SortBy's threshold.
func sortLeaf[T any](xs []T, less func(a, b T) bool) {
	slices.SortStableFunc(xs, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// mergeSortInto sorts src; if toBuf is true the sorted output lands in
// buf, otherwise in src. The two slices alternate roles down the
// recursion so every merge copies exactly once.
func mergeSortInto[T any](w *Worker, src, buf []T, toBuf bool, less func(a, b T) bool) {
	n := len(src)
	if n <= sortSeqThreshold {
		sortLeaf(src, less)
		if toBuf {
			copy(buf, src)
		}
		return
	}
	mid := n / 2
	w.Join(
		func(w *Worker) { mergeSortInto(w, src[:mid], buf[:mid], !toBuf, less) },
		func(w *Worker) { mergeSortInto(w, src[mid:], buf[mid:], !toBuf, less) },
	)
	if toBuf {
		parMerge(w, src[:mid], src[mid:], buf, less)
	} else {
		parMerge(w, buf[:mid], buf[mid:], src, less)
	}
}

// parMerge merges sorted a and b into out (len(out) == len(a)+len(b)),
// splitting recursively: the larger input is halved at its median and
// the other input split by binary search, yielding independent
// sub-merges (a D&C Fearless construction).
func parMerge[T any](w *Worker, a, b, out []T, less func(a, b T) bool) {
	if len(a)+len(b) <= mergeSeqThreshold || w == nil {
		seqMerge(a, b, out, less)
		return
	}
	if len(a) < len(b) {
		// Keep a as the larger side; stability requires care: elements
		// equal across the boundary must take a's first. Swapping sides
		// flips tie-breaking, so instead split on b when it is larger,
		// searching a with the mirrored predicate.
		mid := len(b) / 2
		pivot := b[mid]
		// First index in a with pivot < a[i] (a-elements equal to pivot
		// stay on the left to preserve stability).
		cut := sort.Search(len(a), func(i int) bool { return less(pivot, a[i]) })
		w.Join(
			func(w *Worker) { parMerge(w, a[:cut], b[:mid+1], out[:cut+mid+1], less) },
			func(w *Worker) { parMerge(w, a[cut:], b[mid+1:], out[cut+mid+1:], less) },
		)
		return
	}
	mid := len(a) / 2
	pivot := a[mid]
	// First index in b with !(b[i] < pivot): b-elements equal to pivot go
	// to the right of a[mid], preserving stability.
	cut := sort.Search(len(b), func(i int) bool { return !less(b[i], pivot) })
	w.Join(
		func(w *Worker) { parMerge(w, a[:mid], b[:cut], out[:mid+cut], less) },
		func(w *Worker) { parMerge(w, a[mid:], b[cut:], out[mid+cut:], less) },
	)
}

func seqMerge[T any](a, b, out []T, less func(a, b T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}

// Sort sorts a slice of ordered numbers in place, in parallel.
func Sort[T Number](w *Worker, xs []T) {
	SortBy(w, xs, func(a, b T) bool { return a < b })
}

// IsSorted reports whether xs is non-decreasing under less (RO check).
func IsSorted[T any](w *Worker, xs []T, less func(a, b T) bool) bool {
	if len(xs) < 2 {
		return true
	}
	// Block [lo, hi) checks the pairs (i, i+1) for i in [lo, hi).
	return ReduceBlocks(w, len(xs)-1, true, func(lo, hi int) bool {
		for i := lo; i < hi; i++ {
			if less(xs[i+1], xs[i]) {
				return false
			}
		}
		return true
	}, func(a, b bool) bool { return a && b })
}
