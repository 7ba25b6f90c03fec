// Negative fixtures for writes the standard library and the
// counting-sort cursor make: each must be refused.
package graph

import (
	"slices"
	"sort"

	"fixture/internal/core"
)

// StdlibSorts: every task sorts the whole shared slice; a standard
// library callee writes what it is handed.
func StdlibSorts(w *core.Worker, xs []int, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		slices.Sort(xs)
		sort.Ints(xs)
	})
}

// shiftedBody's place half writes one slot past its handout: the slot
// the cursor hands the next element, maybe in another block.
type shiftedBody struct{ keys, dst []int32 }

func (b *shiftedBody) CountRange(c core.Counter, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Add(int(b.keys[i]))
	}
}

func (b *shiftedBody) PlaceRange(c core.Cursor, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.dst[c.Next(int(b.keys[i]))+1] = int32(i)
	}
}

// byKeyBody's place half draws its slot but writes the key's element,
// which every block with an element of that key writes too.
type byKeyBody struct{ keys, dst []int32 }

func (b *byKeyBody) CountRange(c core.Counter, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Add(int(b.keys[i]))
	}
}

func (b *byKeyBody) PlaceRange(c core.Cursor, lo, hi int) {
	for i := lo; i < hi; i++ {
		k := int(b.keys[i])
		c.Next(k)
		b.dst[k] = int32(i)
	}
}
