package core

import (
	"strings"
	"testing"
)

// Edge-length coverage for the blocked two-pass primitives: empty
// input, a single block (sequential fast path), and lengths that land
// exactly on block boundaries — the off-by-one hot spots of the
// count/scan/write structure. Each case runs both sequentially (nil
// worker) and on the shared pool.

// edgeLengths returns the boundary-sensitive input sizes for elements
// whose derived scan grain is g.
func edgeLengths(g int) []int {
	return []int{0, 1, g - 1, g, g + 1, 2 * g, 2*g + 1, 3 * g}
}

func TestScanIntoLeavesSourceIntact(t *testing.T) {
	for _, n := range edgeLengths(scanGrain[int64]()) {
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(i%7) - 3
		}
		orig := append([]int64(nil), src...)
		want := make([]int64, n)
		var acc int64
		for i, v := range src {
			want[i] = acc
			acc += v
		}
		for _, par := range []bool{false, true} {
			dst := make([]int64, n)
			var total int64
			if par {
				on(func(w *Worker) { total = ScanExclusiveInto(w, dst, src) })
			} else {
				total = ScanExclusiveInto(nil, dst, src)
			}
			if total != acc {
				t.Fatalf("n=%d par=%v: total %d, want %d", n, par, total, acc)
			}
			for i := range src {
				if src[i] != orig[i] {
					t.Fatalf("n=%d par=%v: source modified at %d", n, par, i)
				}
				if dst[i] != want[i] {
					t.Fatalf("n=%d par=%v: dst[%d] = %d, want %d", n, par, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestScanExclusiveOpBlockBoundaries(t *testing.T) {
	for _, n := range edgeLengths(scanGrain[int32]()) {
		for _, par := range []bool{false, true} {
			xs := make([]int32, n)
			for i := range xs {
				xs[i] = int32(i % 11)
			}
			want := make([]int32, n)
			wantTotal := int32(0)
			for i := range xs {
				want[i] = wantTotal
				wantTotal += xs[i]
			}
			add := func(a, b int32) int32 { return a + b }
			var total int32
			if par {
				on(func(w *Worker) { total = ScanExclusiveOp(w, xs, 0, add) })
			} else {
				total = ScanExclusiveOp(nil, xs, 0, add)
			}
			if total != wantTotal {
				t.Fatalf("n=%d par=%v: total = %d, want %d", n, par, total, wantTotal)
			}
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("n=%d par=%v: xs[%d] = %d, want %d", n, par, i, xs[i], want[i])
				}
			}
		}
	}
}

func TestPackIndexBlockBoundaries(t *testing.T) {
	keep := func(i int) bool { return i%3 == 0 }
	for _, n := range edgeLengths(scanBlockFor(4)) {
		var want []int32
		for i := 0; i < n; i++ {
			if keep(i) {
				want = append(want, int32(i))
			}
		}
		for _, par := range []bool{false, true} {
			var got []int32
			if par {
				on(func(w *Worker) { got = PackIndex(w, n, keep) })
			} else {
				got = PackIndex(nil, n, keep)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d par=%v: len = %d, want %d", n, par, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d par=%v: got[%d] = %d, want %d", n, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestIntoFormsReuseDestination pins the destination-passing contract:
// with a warmed destination of sufficient capacity the *Into forms
// return a slice sharing its backing array instead of reallocating.
func TestIntoFormsReuseDestination(t *testing.T) {
	n := 1000
	dst := make([]int32, n)
	got := PackIndexInto(nil, n, func(i int) bool { return i%2 == 0 }, dst)
	if &got[0] != &dst[0] {
		t.Fatal("PackIndexInto reallocated despite sufficient capacity")
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(i)
	}
	pdst := make([]int32, n)
	pgot := PackInto(nil, xs, func(lo, hi int) uint64 { return 0x5555555555555555 }, pdst)
	if &pgot[0] != &pdst[0] {
		t.Fatal("PackInto reallocated despite sufficient capacity")
	}
	// Too small: must grow, leaving the original untouched beyond its use.
	small := make([]int32, 1)
	grown := PackIndexInto(nil, n, func(i int) bool { return true }, small)
	if len(grown) != n {
		t.Fatalf("grown pack len = %d, want %d", len(grown), n)
	}
}

// TestPackIndexOverflowGuard injects a small packIndexLimit and checks
// that an index space past it panics with the overflow message instead
// of wrapping int32 indices silently. (The real limit needs a
// 2^31-element input to exercise.)
func TestPackIndexOverflowGuard(t *testing.T) {
	defer func(old int64) { packIndexLimit = old }(packIndexLimit)
	packIndexLimit = 1 << 10
	// At the limit: fine.
	if got := PackIndex(nil, 1<<10, func(i int) bool { return i == 0 }); len(got) != 1 {
		t.Fatalf("pack at limit: len = %d, want 1", len(got))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PackIndex past the limit did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "packed-index limit") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	PackIndex(nil, 1<<10+1, func(i int) bool { return true })
}
