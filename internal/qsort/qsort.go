// Package qsort is a sequential unstable sort for integer keys whose
// partition loop has no data-dependent branch — the leaf the sort
// benchmark runs on each sample-sort bucket, in the role Rust's
// sort_unstable plays under RPB's sample sort.
//
// slices.Sort (pdqsort) partitions with one branch per element; on
// random keys about half of them mispredict. Here every element of a
// partition is swapped into place unconditionally and the boundary
// advances by the comparison's 0/1 (a branch-free Lomuto partition, in
// the spirit of Edelkamp & Weiß's BlockQuicksort), so the loop's cost
// does not depend on the key order. Around it is an ordinary introsort:
// ninther or median-of-3 pivots, pdqsort's skip over runs equal to the
// enclosing pivot, insertion sort on short ranges and a heapsort
// fallback once the recursion is deeper than 2·⌈log₂n⌉.
package qsort

import "math/bits"

// Integer is every key type Sort accepts.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// insertionMax is the longest range insertion sort finishes.
const insertionMax = 24

// nintherMin is the shortest range whose pivot is Tukey's ninther
// rather than a median of 3.
const nintherMin = 128

// Sort sorts xs in ascending order. It is not stable, allocates nothing
// and runs in O(n log n) time in the worst case.
func Sort[T Integer](xs []T) {
	if len(xs) < 2 {
		return
	}
	introsort(xs, 2*bits.Len(uint(len(xs)-1)), false, 0)
}

// introsort sorts a. limit is how many more partition levels may run
// before heapsort takes over. When hasPred is set, a was the right part
// of a partition around pred, so no element of a is below pred.
func introsort[T Integer](a []T, limit int, hasPred bool, pred T) {
	for len(a) > insertionMax {
		if limit == 0 {
			heapSort(a)
			return
		}
		limit--
		choosePivot(a)
		p := a[0]
		if hasPred && p == pred {
			// Every element is >= pred == p, so the ones <= p equal it
			// and are already in their final place.
			a = a[partitionLE(a, p):]
			continue
		}
		mid := partitionLT(a, p)
		left, right := a[:mid], a[mid+1:]
		// Recurse into the shorter part and loop on the longer, so the
		// stack stays O(log n) deep.
		if len(left) < len(right) {
			introsort(left, limit, hasPred, pred)
			a, hasPred, pred = right, true, p
		} else {
			introsort(right, limit, true, p)
			a = left
		}
	}
	insertionSort(a)
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// partitionLT partitions a around the pivot p = a[0] and returns the
// pivot's final index m: a[:m] < p <= a[m+1:].
func partitionLT[T Integer](a []T, p T) int {
	first := 1
	for i := 1; i < len(a); i++ {
		x := a[i]
		a[i] = a[first]
		a[first] = x
		first += b2i(x < p)
	}
	m := first - 1
	a[0], a[m] = a[m], a[0]
	return m
}

// partitionLE moves every element <= p, the pivot a[0] included, to the
// front of a and returns how many there are.
func partitionLE[T Integer](a []T, p T) int {
	first := 0
	for i := 0; i < len(a); i++ {
		x := a[i]
		a[i] = a[first]
		a[first] = x
		first += b2i(x <= p)
	}
	return first
}

// choosePivot swaps the chosen pivot into a[0]: the ninther of nine
// spread samples for long ranges, the median of three otherwise.
func choosePivot[T Integer](a []T) {
	n := len(a)
	mid := n / 2
	var m int
	if n >= nintherMin {
		s := n / 8
		m = median3(a,
			median3(a, 0, s, 2*s),
			median3(a, mid-s, mid, mid+s),
			median3(a, n-1-2*s, n-1-s, n-1))
	} else {
		m = median3(a, 0, mid, n-1)
	}
	a[0], a[m] = a[m], a[0]
}

// median3 returns whichever of i, j, k indexes the median of their
// three values.
func median3[T Integer](a []T, i, j, k int) int {
	if a[j] < a[i] {
		i, j = j, i
	}
	if a[k] >= a[j] {
		return j
	}
	if a[k] >= a[i] {
		return k
	}
	return i
}

func insertionSort[T Integer](a []T) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && x < a[j-1]; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

func heapSort[T Integer](a []T) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDown(a, i)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a[:end], 0)
	}
}

// siftDown restores the max-heap order of a below root.
func siftDown[T Integer](a []T, root int) {
	for {
		c := 2*root + 1
		if c >= len(a) {
			return
		}
		if c+1 < len(a) && a[c] < a[c+1] {
			c++
		}
		if a[root] >= a[c] {
			return
		}
		a[root], a[c] = a[c], a[root]
		root = c
	}
}
