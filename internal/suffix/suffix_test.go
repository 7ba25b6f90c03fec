package suffix

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/suffix/suffixtest"
)

var testPool *core.Pool

func on(f func(w *core.Worker)) { testPool.Do(f) }

func TestArrayBanana(t *testing.T) {
	s := []byte("banana")
	var sa []int32
	on(func(w *core.Worker) { sa = Array(w, s) })
	want := []int32{5, 3, 1, 0, 4, 2} // a, ana, anana, banana, na, nana
	for i := range want {
		if sa[i] != want[i] {
			t.Fatalf("sa = %v, want %v", sa, want)
		}
	}
}

func TestArrayEdgeCases(t *testing.T) {
	if Array(nil, nil) != nil {
		t.Fatal("empty input should give nil")
	}
	if sa := Array(nil, []byte("z")); len(sa) != 1 || sa[0] != 0 {
		t.Fatalf("single char sa = %v", sa)
	}
	// All-equal input exercises the deepest doubling chain.
	s := bytes.Repeat([]byte("a"), 300)
	var sa []int32
	on(func(w *core.Worker) { sa = Array(w, s) })
	for i := range sa {
		if sa[i] != int32(len(s)-1-i) {
			t.Fatalf("aaaa sa wrong at %d: %d", i, sa[i])
		}
	}
}

func TestArrayMatchesNaiveOracle(t *testing.T) {
	texts := []string{
		"mississippi",
		"abracadabra",
		"aaaaabaaaab",
		"the quick brown fox jumps over the lazy dog",
		strings.Repeat("abcab", 50),
	}
	for _, txt := range texts {
		s := []byte(txt)
		var got []int32
		on(func(w *core.Worker) { got = Array(w, s) })
		want := NaiveArray(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: sa[%d] = %d, want %d", txt, i, got[i], want[i])
			}
		}
	}
}

func TestArrayPropertyMatchesNaive(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		// Keep bytes nonzero (0 is the BWT sentinel, excluded by contract).
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b%255 + 1
		}
		var got []int32
		on(func(w *core.Worker) { got = Array(w, s) })
		want := NaiveArray(s)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayOnGeneratedText(t *testing.T) {
	txt := seqgen.Text(nil, 20000, 42)
	var sa []int32
	on(func(w *core.Worker) { sa = Array(w, txt) })
	// The result must be a permutation with strictly increasing suffixes.
	seen := make([]bool, len(txt))
	for _, i := range sa {
		if seen[i] {
			t.Fatal("sa not a permutation")
		}
		seen[i] = true
	}
	for j := 1; j < len(sa); j += 997 { // spot-check ordering
		if bytes.Compare(txt[sa[j-1]:], txt[sa[j]:]) >= 0 {
			t.Fatalf("suffixes out of order at %d", j)
		}
	}
}

// TestArrayMatchesDC3Table runs ArrayOpts over the shared edge-case
// table — lengths around the pack width, periodic texts, a repeat to
// the end, every byte value — sequentially and on pools of 1, 2 and 8
// workers, in both scatter modes, against the independent DC3
// construction.
func TestArrayMatchesDC3Table(t *testing.T) {
	cases := suffixtest.Cases()
	want := make([][]int32, len(cases))
	for i, c := range cases {
		want[i] = ArrayDC3(c.Text)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		run := func(f func(w *core.Worker)) { f(nil) }
		if workers > 0 {
			pool := core.NewPool(workers)
			defer pool.Close()
			run = func(f func(w *core.Worker)) { pool.Do(f) }
		}
		for _, checked := range []bool{false, true} {
			for i, c := range cases {
				var got []int32
				run(func(w *core.Worker) { got = ArrayOpts(w, c.Text, checked) })
				if len(got) != len(want[i]) {
					t.Fatalf("%s (workers %d, checked %v): length %d, want %d", c.Name, workers, checked, len(got), len(want[i]))
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Fatalf("%s (workers %d, checked %v): sa[%d] = %d, want %d", c.Name, workers, checked, j, got[j], want[i][j])
					}
				}
			}
		}
	}
}

func TestLCPKnown(t *testing.T) {
	s := []byte("banana")
	sa := NaiveArray(s)
	lcp := LCP(s, sa)
	// suffixes: a, ana, anana, banana, na, nana
	want := []int32{1, 3, 0, 0, 2}
	for i := range want {
		if lcp[i] != want[i] {
			t.Fatalf("lcp = %v, want %v", lcp, want)
		}
	}
}

func TestLCPPropertyDirectCompare(t *testing.T) {
	lcpLen := func(a, b []byte) int32 {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return int32(n)
	}
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return LCP(nil, nil) == nil
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		sa := NaiveArray(raw)
		lcp := LCP(raw, sa)
		for j := 0; j+1 < len(sa); j++ {
			if lcp[j] != lcpLen(raw[sa[j]:], raw[sa[j+1]:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBWTRoundTripSmall(t *testing.T) {
	for _, txt := range []string{"banana", "mississippi", "a", "ab", "abab"} {
		var bwt, dec []byte
		on(func(w *core.Worker) { bwt = BWTEncode(w, []byte(txt)) })
		if len(bwt) != len(txt)+1 {
			t.Fatalf("%q: bwt length %d", txt, len(bwt))
		}
		on(func(w *core.Worker) { dec = BWTDecode(w, bwt) })
		if string(dec) != txt {
			t.Fatalf("round trip failed: %q -> %q", txt, dec)
		}
		if seq := BWTDecodeSequential(bwt); string(seq) != txt {
			t.Fatalf("sequential decode failed: %q -> %q", txt, seq)
		}
	}
}

func TestBWTRoundTripGeneratedText(t *testing.T) {
	txt := seqgen.Text(nil, 30000, 7)
	var bwt, dec []byte
	on(func(w *core.Worker) { bwt = BWTEncode(w, txt) })
	on(func(w *core.Worker) { dec = BWTDecode(w, bwt) })
	if !bytes.Equal(dec, txt) {
		t.Fatal("parallel decode round trip failed")
	}
	if !bytes.Equal(BWTDecodeSequential(bwt), txt) {
		t.Fatal("sequential decode round trip failed")
	}
}

func TestBWTPropertyRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b%255 + 1
		}
		bwt := BWTEncode(nil, s)
		return bytes.Equal(BWTDecode(nil, bwt), s) &&
			bytes.Equal(BWTDecodeSequential(bwt), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBWTDecodeEmpty(t *testing.T) {
	if BWTDecode(nil, nil) != nil || BWTDecode(nil, []byte{0}) != nil {
		t.Fatal("degenerate BWT should decode to nil")
	}
	if BWTDecodeSequential([]byte{0}) != nil {
		t.Fatal("degenerate sequential decode should be nil")
	}
}

func TestLFMappingIsStableSortPosition(t *testing.T) {
	bwt := []byte("annb\x00aa")
	lf := lfMapping(nil, bwt)
	// Stable sorted: \x00(pos4), a(1), a(5), a(6), b(3), n(1), n(2)
	// lf[i] = position of bwt[i] in the stable sort.
	type kv struct {
		c   byte
		idx int
	}
	var sorted []kv
	for i, c := range bwt {
		sorted = append(sorted, kv{c, i})
	}
	core.SortBy(nil, sorted, func(a, b kv) bool {
		if a.c != b.c {
			return a.c < b.c
		}
		return a.idx < b.idx
	})
	for pos, s := range sorted {
		if lf[s.idx] != int32(pos) {
			t.Fatalf("lf[%d] = %d, want %d", s.idx, lf[s.idx], pos)
		}
	}
}

func BenchmarkSuffixArray100k(b *testing.B) {
	txt := seqgen.Text(nil, 100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on(func(w *core.Worker) { _ = Array(w, txt) })
	}
}

func TestDistinctBytes(t *testing.T) {
	var got [256]bool
	on(func(w *core.Worker) { got = DistinctBytes(w, []byte("abba z")) })
	for c := 0; c < 256; c++ {
		want := c == 'a' || c == 'b' || c == ' ' || c == 'z'
		if got[c] != want {
			t.Fatalf("present[%q] = %v, want %v", byte(c), got[c], want)
		}
	}
	if DistinctBytes(nil, nil) != [256]bool{} {
		t.Fatal("empty string should report nothing present")
	}
}

func TestDistinctBytesDeterministicUnderParallelism(t *testing.T) {
	txt := seqgen.Text(nil, 50000, 3)
	var a, b [256]bool
	on(func(w *core.Worker) { a = DistinctBytes(w, txt) })
	b = DistinctBytes(nil, txt)
	if a != b {
		t.Fatal("parallel and sequential presence maps differ")
	}
}

func TestArrayDC3MatchesNaive(t *testing.T) {
	texts := []string{
		"", "a", "ab", "ba", "aaa", "banana", "mississippi",
		"abracadabra", "yabbadabbadoo",
		strings.Repeat("ab", 100), strings.Repeat("aab", 67),
	}
	for _, txt := range texts {
		got := ArrayDC3([]byte(txt))
		want := NaiveArray([]byte(txt))
		if len(got) != len(want) {
			t.Fatalf("%q: len %d vs %d", txt, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: sa[%d] = %d, want %d (got %v want %v)", txt, i, got[i], want[i], got, want)
			}
		}
	}
}

func TestArrayDC3PropertyMatchesDoubling(t *testing.T) {
	f := func(raw []byte, pad uint8) bool {
		// Exercise all n mod 3 cases via pad.
		n := len(raw) + int(pad%3)
		s := make([]byte, n)
		for i := range s {
			if i < len(raw) {
				s[i] = raw[i]%255 + 1
			} else {
				s[i] = 'x'
			}
		}
		a := ArrayDC3(s)
		b := Array(nil, s)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayDC3GeneratedText(t *testing.T) {
	txt := seqgen.Text(nil, 50000, 21)
	got := ArrayDC3(txt)
	var want []int32
	on(func(w *core.Worker) { want = Array(w, txt) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sa[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func BenchmarkArrayAlgorithms(b *testing.B) {
	// Ablation: prefix doubling (parallelizable, O(n log n)) vs DC3
	// (sequential, O(n)).
	txt := seqgen.Text(nil, 200_000, 1)
	b.Run("prefix-doubling-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Array(nil, txt)
		}
	})
	b.Run("prefix-doubling-par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			on(func(w *core.Worker) { _ = Array(w, txt) })
		}
	})
	b.Run("dc3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ArrayDC3(txt)
		}
	})
}
