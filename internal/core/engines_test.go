package core

// Tests for the range-bodied pattern engines: ForBlocks, the bitmask
// pack, the closure-free scatter and the range-bodied offset checker.

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// pools runs f sequentially (nil worker), on a one-worker pool and on
// the shared four-worker pool.
func pools(t *testing.T, f func(name string, w *Worker)) {
	t.Helper()
	f("nil", nil)
	one := NewPool(1)
	defer one.Close()
	one.Do(func(w *Worker) { f("1 worker", w) })
	on(func(w *Worker) { f("4 workers", w) })
}

// TestPackCallsPredicateOncePerIndex pins the single-evaluation
// contract of every pack entry point, and its result against a
// sequential filter, at the word and block boundaries.
func TestPackCallsPredicateOncePerIndex(t *testing.T) {
	block := packBlockWords() * packWord
	for _, n := range []int{0, 1, 63, 64, 65, block - 1, block, block + 1, 3*block + 7} {
		keepIdx := func(i int) bool { return i%3 == 0 || i%7 == 1 }
		src := make([]int32, n)
		var wantIdx, wantVal []int32
		for i := range src {
			src[i] = int32(n - i)
			if keepIdx(i) {
				wantIdx = append(wantIdx, int32(i))
				wantVal = append(wantVal, src[i])
			}
		}
		pools(t, func(name string, w *Worker) {
			calls := make([]atomic.Int32, n)
			keep := func(i int) bool {
				calls[i].Add(1)
				return keepIdx(i)
			}
			mask := func(lo, hi int) uint64 {
				if hi-lo < 1 || hi-lo > 64 || lo%64 != 0 {
					t.Errorf("n=%d %s: mask called with [%d, %d)", n, name, lo, hi)
				}
				var m uint64
				for i := lo; i < hi; i++ {
					if keep(i) {
						m |= 1 << uint(i-lo)
					}
				}
				return m
			}
			check := func(form string, got, want []int32) {
				if !slices.Equal(got, want) {
					t.Errorf("n=%d %s %s: packed %d elements, want %d (first few %v vs %v)",
						n, name, form, len(got), len(want), got[:min(4, len(got))], want[:min(4, len(want))])
				}
				for i := range calls {
					if c := calls[i].Swap(0); c != 1 {
						t.Errorf("n=%d %s %s: predicate ran %d times on index %d, want 1", n, name, form, c, i)
						return
					}
				}
			}
			check("PackIndexInto", PackIndexInto(w, n, keep, nil), wantIdx)
			check("PackMaskInto", PackMaskInto(w, n, mask, nil), wantIdx)
			check("PackInto", PackInto(w, src, mask, nil), wantVal)
		})
	}
}

// TestPackMaskIgnoresBitsPastTheRange: a mask that sets every bit of
// its word must not produce indices at or past n.
func TestPackMaskIgnoresBitsPastTheRange(t *testing.T) {
	all := func(lo, hi int) uint64 { return ^uint64(0) }
	for _, n := range []int{1, 63, 64, 65, 130} {
		got := PackMaskInto(nil, n, all, nil)
		if len(got) != n || (n > 0 && got[n-1] != int32(n-1)) {
			t.Fatalf("n=%d: packed %d indices ending %v, want the identity", n, len(got), got[max(0, len(got)-2):])
		}
	}
}

// TestForBlocksCoversRangeOnceUnderSteals runs ForBlocks with a tiny
// grain on a pool whose other workers are parked, so the lazy splitter
// hands halves to thieves, and checks that the subranges are disjoint,
// inside [lo, hi), and cover it exactly once. Run with -race: the
// plain per-index counters are written by whichever worker owns the
// subrange.
func TestForBlocksCoversRangeOnceUnderSteals(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	stolen := func() (n int64) {
		for _, s := range p.Stats() {
			n += s.Stolen
		}
		return n
	}
	parked := func() (n int64) {
		for _, s := range p.Stats() {
			n += s.Parked
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); parked() < 4 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	const lo, hi = 37, 37 + 1<<15
	before := stolen()
	for attempt := 0; attempt < 500 && stolen() == before; attempt++ {
		visits := make([]int32, hi+64)
		var longest atomic.Int64
		p.Do(func(w *Worker) {
			ForBlocks(w, lo, hi, 8, func(l, h int) {
				if l < lo || h > hi || l >= h {
					t.Errorf("subrange [%d, %d) outside [%d, %d)", l, h, lo, hi)
					return
				}
				for n := int64(h - l); ; {
					if old := longest.Load(); n <= old || longest.CompareAndSwap(old, n) {
						break
					}
				}
				for i := l; i < h; i++ {
					visits[i]++
				}
			})
		})
		for i, v := range visits {
			want := int32(0)
			if i >= lo && i < hi {
				want = 1
			}
			if v != want {
				t.Fatalf("index %d visited %d times, want %d", i, v, want)
			}
		}
		if longest.Load() > 8 {
			t.Fatalf("subrange of %d elements, grain is 8", longest.Load())
		}
	}
	if stolen() == before {
		t.Skip("no steal happened in 500 runs; coverage was still checked on every run")
	}
}

// TestForBlocksDegenerateRanges: empty and reversed ranges never call
// the body; a one-element range calls it once.
func TestForBlocksDegenerateRanges(t *testing.T) {
	pools(t, func(name string, w *Worker) {
		calls := 0
		ForBlocks(w, 5, 5, 0, func(lo, hi int) { calls++ })
		ForBlocks(w, 9, 2, 0, func(lo, hi int) { calls++ })
		if calls != 0 {
			t.Fatalf("%s: body ran %d times on empty ranges", name, calls)
		}
		ForBlocks(w, 7, 8, 0, func(lo, hi int) {
			if lo != 7 || hi != 8 {
				t.Errorf("%s: got [%d, %d), want [7, 8)", name, lo, hi)
			}
			calls++
		})
		if calls != 1 {
			t.Fatalf("%s: body ran %d times on a one-element range", name, calls)
		}
	})
}

// TestCheckerReportsTheSameErrors pins the error values of the
// range-bodied checker. Sequentially the first violation in index
// order wins, so the fields are exact; on a pool any one violation may
// win, so each case plants exactly one.
func TestCheckerReportsTheSameErrors(t *testing.T) {
	const n = 1 << 14
	ident := func() []int32 {
		p := make([]int32, n)
		for i := range p {
			p[i] = int32(i)
		}
		return p
	}
	// With 4 workers the automatic grain is n/32: indices grain-1 and
	// grain sit in different subranges.
	const grain = n / 32
	cases := []struct {
		name  string
		plant func(p []int32)
		want  error
	}{
		{"duplicate straddling a range boundary",
			func(p []int32) { p[grain] = p[grain-1] },
			&DuplicateOffsetError{Index: grain, Offset: grain - 1}},
		{"duplicate inside one bitmap word",
			func(p []int32) { p[70] = p[65] },
			&DuplicateOffsetError{Index: 70, Offset: 65}},
		{"first offset negative",
			func(p []int32) { p[0] = -1 },
			&OffsetRangeError{Index: 0, Offset: -1, Len: n}},
		{"last offset one past the end",
			func(p []int32) { p[n-1] = n },
			&OffsetRangeError{Index: n - 1, Offset: n, Len: n}},
	}
	for _, tc := range cases {
		offsets := ident()
		tc.plant(offsets)
		pools(t, func(name string, w *Worker) {
			out := make([]int32, n)
			ran := false
			err := IndForEach(w, out, offsets, func(int, *int32) { ran = true })
			if ran {
				t.Errorf("%s, %s: body ran despite the failed check", tc.name, name)
			}
			var wantDup *DuplicateOffsetError
			if errors.As(tc.want, &wantDup) {
				var got *DuplicateOffsetError
				if !errors.As(err, &got) {
					t.Fatalf("%s, %s: got %v, want %v", tc.name, name, err, tc.want)
				}
				// On a pool either occurrence may be the one that finds
				// the bit already set.
				if *got != *wantDup && (w == nil || got.Offset != wantDup.Offset) {
					t.Errorf("%s, %s: got %+v, want %+v", tc.name, name, *got, *wantDup)
				}
			} else {
				var got, want *OffsetRangeError
				errors.As(tc.want, &want)
				if !errors.As(err, &got) || *got != *want {
					t.Errorf("%s, %s: got %v, want %+v", tc.name, name, err, *want)
				}
			}
			// The checked scatter shares the checker and never writes on failure.
			vals := make([]int32, n)
			for i := range vals {
				vals[i] = 1
			}
			if err2 := ScatterChecked(w, out, offsets, vals); err2 == nil {
				t.Errorf("%s, %s: ScatterChecked accepted the offsets", tc.name, name)
			}
			if slices.Contains(out, 1) {
				t.Errorf("%s, %s: ScatterChecked wrote despite the failed check", tc.name, name)
			}
		})
	}
}

// TestCheckerUnsignedOffsets: the single unsigned bounds compare must
// treat a huge uint64 offset as out of range, reporting it as before.
func TestCheckerUnsignedOffsets(t *testing.T) {
	offsets := []uint64{0, 1 << 63, 2}
	err := IndForEach(nil, make([]int, 3), offsets, func(int, *int) {})
	var got *OffsetRangeError
	if !errors.As(err, &got) || got.Index != 1 || got.Len != 3 {
		t.Fatalf("got %v, want an OffsetRangeError at index 1", err)
	}
}

// TestScatterMatchesIndForEach: the closure-free scatter writes what
// the per-element form writes, on every pool shape, and a reused
// checker box starts clean after a failed run.
func TestScatterMatchesIndForEach(t *testing.T) {
	const n = 50_000
	offsets := permutation(n, 11)
	vals := make([]uint16, n)
	for i := range vals {
		vals[i] = uint16(i * 7)
	}
	want := make([]uint16, n)
	IndForEachUnchecked(nil, want, offsets, func(i int, slot *uint16) { *slot = vals[i] })
	pools(t, func(name string, w *Worker) {
		got := make([]uint16, n)
		ScatterUnchecked(w, got, offsets, vals)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ScatterUnchecked differs from IndForEachUnchecked", name)
		}
		bad := slices.Clone(offsets)
		bad[5] = bad[4]
		if err := ScatterChecked(w, make([]uint16, n), bad, vals); err == nil {
			t.Fatalf("%s: ScatterChecked missed a duplicate", name)
		}
		clear(got)
		if err := ScatterChecked(w, got, offsets, vals); err != nil {
			t.Fatalf("%s: ScatterChecked after a failed run: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ScatterChecked differs from IndForEachUnchecked", name)
		}
	})
}

func TestScatterPanicsOnShortVals(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScatterUnchecked accepted vals shorter than offsets")
		}
	}()
	ScatterUnchecked(nil, make([]int, 4), []int32{0, 1, 2}, []int{1, 2})
}

// TestCheckerFindsCrossLaneDuplicate drives the two passes by hand with
// the offsets split across two lanes, the situation a steal creates: no
// lane sees the duplicate, the merge pass must, and it must name the
// second occurrence.
func TestCheckerFindsCrossLaneDuplicate(t *testing.T) {
	const n = 1000
	offsets := permutation(n, 13)
	offsets[900] = offsets[100]
	c := &uniqueCheck[int32]{offsets: offsets, outLen: n, words: (n + 63) / 64}
	c.lanes = make([]uint64, 2*c.words)
	c.used = []bool{true, true}
	c.claim(c.lanes[:c.words], 0, n/2)
	c.claim(c.lanes[c.words:], n/2, n)
	if ep := c.err.Load(); ep != nil {
		t.Fatalf("a single lane reported %v; the duplicate spans lanes", *ep)
	}
	c.mergeRange(0, c.words)
	ep := c.err.Load()
	if ep == nil {
		t.Fatal("merge pass missed a duplicate claimed on two lanes")
	}
	var dup *DuplicateOffsetError
	if !errors.As(*ep, &dup) || dup.Index != 900 || dup.Offset != int(offsets[100]) {
		t.Fatalf("got %v, want duplicate offset %d at offsets[900]", *ep, offsets[100])
	}
}
