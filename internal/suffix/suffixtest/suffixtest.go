// Package suffixtest holds the edge-case texts every suffix-array
// construction in the repository is tested against (suffix.ArrayOpts
// and the hand-rolled baseline in internal/bench), so both run one
// table. The shapes target prefix doubling over a packed first sort:
// lengths around the pack width h — the number of character codes one
// 64-bit key holds, h = 64/BitsFor(σ) for an alphabet of σ bytes —
// periodic texts whose groups stay tied for many rounds, a repeat
// longer than h that runs to the end of the text, and every byte value
// including 0.
package suffixtest

import (
	"fmt"
	"strings"

	"repro/internal/seqgen"
)

// Case is one named input text.
type Case struct {
	Name string
	Text []byte
}

// Cases returns the table. Texts are generated deterministically.
func Cases() []Case {
	var cs []Case
	add := func(name string, s []byte) { cs = append(cs, Case{name, s}) }
	rng := seqgen.NewRng(0x5f)
	// Alphabets whose pack width is exact at every length: one letter
	// (σ = 1, h = 64) and two letters, both present from n = 2 on
	// (σ = 2, h = 32).
	for _, f := range []struct {
		name string
		h    int
		at   func(i int) byte
	}{
		{"a", 64, func(int) byte { return 'a' }},
		{"ab-random", 32, func(i int) byte {
			if i < 2 {
				return "ab"[i]
			}
			return "ab"[rng.U64(uint64(i))&1]
		}},
	} {
		for _, n := range []int{0, 1, 2, 3, f.h - 1, f.h, f.h + 1, 1<<14 - 1, 1<<14 + 1} {
			s := make([]byte, n)
			for i := range s {
				s[i] = f.at(i)
			}
			add(fmt.Sprintf("%s/n=%d", f.name, n), s)
		}
	}
	add("period-2", []byte(strings.Repeat("ab", 2500)))
	add("period-3", []byte(strings.Repeat("abc", 1667)))
	// A 100-letter repeat (h = 12 for 26 letters) whose second copy
	// ends the text.
	letters := func(n int, k uint64) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = 'a' + byte(rng.Fork(k).U64(uint64(i))%26)
		}
		return s
	}
	x := letters(100, 1)
	var rep []byte
	rep = append(rep, letters(3000, 2)...)
	rep = append(rep, x...)
	rep = append(rep, letters(500, 3)...)
	rep = append(rep, x...)
	add("repeat-to-end", rep)
	// Every byte value, 0 included (σ = 256, h = 7).
	for _, n := range []int{1<<14 - 1, 1<<14 + 1} {
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(i)
			if i >= 256 {
				s[i] = byte(rng.Fork(4).U64(uint64(i)))
			}
		}
		add(fmt.Sprintf("bytes/n=%d", n), s)
		add(fmt.Sprintf("wiki/n=%d", n), seqgen.Text(nil, n, uint64(n)))
	}
	add("banana-nul", []byte("banana\x00"))
	return cs
}
