package bench

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/suffix"
	"repro/internal/suffix/suffixtest"
)

func TestDirectForCoversRange(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 5, 100, 1001} {
			visited := make([]int, n)
			directFor(threads, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					visited[i]++
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, v)
				}
			}
		}
	}
}

func TestDirectForMoreThreadsThanItems(t *testing.T) {
	count := 0
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	directFor(16, 3, func(lo, hi int) {
		<-mu
		count += hi - lo
		mu <- struct{}{}
	})
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestDirectReduceMatchesSequential(t *testing.T) {
	f := func(xs []int32, threads uint8) bool {
		th := int(threads%6) + 1
		var want int64
		for _, x := range xs {
			want += int64(x)
		}
		got := directReduce(th, len(xs), 0,
			func(i int) int64 { return int64(xs[i]) },
			func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectScanMatchesSequential(t *testing.T) {
	f := func(raw []int16, threads uint8) bool {
		th := int(threads%6) + 1
		xs := make([]int32, len(raw))
		want := make([]int32, len(raw))
		var acc, total int32
		for i, r := range raw {
			xs[i] = int32(r % 100)
			want[i] = acc
			acc += xs[i]
		}
		total = acc
		got := directScanExclusive(th, xs)
		if got != total {
			return false
		}
		for i := range xs {
			if xs[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectSuffixArrayMatchesLibrary(t *testing.T) {
	for _, n := range []int{0, 1, 50, 5000} {
		text := seqgen.Text(nil, n, 99)
		want := suffix.Array(nil, text)
		got := directSuffixArray(3, text)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d vs %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: sa[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

// The hand-rolled suffix array runs the same edge-case table as
// suffix.ArrayOpts, against DC3, on one, two and eight threads.
func TestDirectSuffixArrayMatchesDC3Table(t *testing.T) {
	for _, c := range suffixtest.Cases() {
		want := suffix.ArrayDC3(c.Text)
		for _, threads := range []int{1, 2, 8} {
			got := directSuffixArray(threads, c.Text)
			if len(got) != len(want) {
				t.Fatalf("%s (%d threads): length %d, want %d", c.Name, threads, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s (%d threads): sa[%d] = %d, want %d", c.Name, threads, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDirectBWTDecodeMatchesLibrary(t *testing.T) {
	text := seqgen.Text(nil, 20000, 5)
	bwt := suffix.BWTEncode(nil, text)
	got := directBWTDecode(3, bwt)
	if !bytes.Equal(got, text) {
		t.Fatal("direct BWT decode does not round-trip")
	}
	if directBWTDecode(2, nil) != nil || directBWTDecode(2, []byte{0}) != nil {
		t.Fatal("degenerate decode should be nil")
	}
}

func TestDirectSortPairsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 20000
	keys := make([]uint64, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(64))
		vals[i] = int32(i)
	}
	directSortPairs(3, keys, vals, 8, make([]uint64, n), make([]int32, n))
	for i := 1; i < n; i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("not sorted at %d", i)
		}
		if keys[i-1] == keys[i] && vals[i-1] > vals[i] {
			t.Fatalf("not stable at %d", i)
		}
	}
}

func TestVariantsAgreeOnMISStatus(t *testing.T) {
	// The rootset MIS is deterministic given priorities, so the library
	// and direct variants must produce the identical independent set.
	spec, _ := Find("mis")
	instA := spec.Make("road", ScaleTest)
	if _, err := Measure(instA, VariantLibrary, core.ModeUnchecked, 3, 1); err != nil {
		t.Fatal(err)
	}
	instB := spec.Make("road", ScaleTest)
	if _, err := Measure(instB, VariantDirect, core.ModeUnchecked, 3, 1); err != nil {
		t.Fatal(err)
	}
	// Both instances share the same generated graph and priorities
	// (deterministic seeds), so the resulting set sizes must agree.
	a, bN := instA.Stat(), instB.Stat()
	if a != bN {
		t.Fatalf("library MIS size %d != direct MIS size %d", a, bN)
	}
	if a == 0 {
		t.Fatal("empty MIS on a non-empty graph")
	}
}

// TestDirectSortMatchesOracle runs the hand-rolled sample sort at one,
// two and four threads; it takes the sample-sort path at every count,
// so the one-thread run is not a whole-array sort.
func TestDirectSortMatchesOracle(t *testing.T) {
	spec, err := Find("sort")
	if err != nil {
		t.Fatal(err)
	}
	inst := spec.Make("exponential", ScaleTest)
	for _, threads := range []int{1, 2, 4} {
		if _, err := Measure(inst, VariantDirect, core.ModeUnchecked, threads, 1); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}
