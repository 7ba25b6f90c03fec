// Package bench holds the positive lifetimes fixtures: one function
// per proof form the pass accepts. Every checkout must land in a
// non-refused class, and every class and release discipline the pass
// knows must fire at least once.
package bench

import (
	"fixture/internal/arena"
	"fixture/internal/core"
)

// scanBox is per-worker reusable state; checkouts transit through its
// field and are cleared before the box goes back.
type scanBox struct {
	dst []int32
}

// ReleasedPlain: the canonical LIFO checkout — Mark, allocate, fill
// inside a region, Release.
func ReleasedPlain(w *core.Worker, a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	core.ForRange(w, 0, n, 1, func(i int) { buf[i] = int32(i) })
	a.Release(m)
}

// ReleasedDeferred: a deferred Release covers panic edges, proving
// release on all paths.
func ReleasedDeferred(w *core.Worker, a *arena.Arena, n int) {
	m := a.Mark()
	defer a.Release(m)
	buf := arena.AllocUninit[int32](a, n)
	core.ForRange(w, 0, n, 1, func(i int) { buf[i] = int32(i) })
}

// RegionConfined: the checkout is allocated inside the region body and
// never leaves it; the arena owner's Reset reclaims the memory.
func RegionConfined(w *core.Worker, a *arena.Arena, src, dst []int32) {
	core.ForRange(w, 0, len(src), 1, func(i int) {
		tmp := arena.AllocUninit[int32](a, 4)
		tmp[0] = src[i]
		dst[i] = tmp[0]
	})
}

// BoxTransit: a checkout transits through a local box's field, is
// cleared before ReleaseBox, and the box itself is a released
// checkout.
func BoxTransit(w *core.Worker, a *arena.Arena, n int) int32 {
	m := a.Mark()
	sums := arena.AllocUninit[int32](a, n)
	b := arena.AcquireBox[scanBox](w)
	b.dst = sums
	core.ForRange(w, 0, n, 1, func(i int) { b.dst[i] = int32(i) })
	var total int32
	for i := range sums {
		total += sums[i]
	}
	b.dst = nil
	arena.ReleaseBox(w, b)
	a.Release(m)
	return total
}

// FillBox: a helper allocating straight into a box-typed parameter's
// field — worker-confined because BoxTransit's clear proves the field
// is nil'ed before the box is reused.
func FillBox(w *core.Worker, a *arena.Arena, b *scanBox, n int) {
	b.dst = arena.AllocUninit[int32](a, n)
	core.ForRange(w, 0, n, 1, func(i int) { b.dst[i] = 0 })
}

// UninitFilled: AllocUninit memory read only after a full-slice fill —
// the read-before-write subrule must stay quiet.
func UninitFilled(a *arena.Arena, n int) int32 {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	v := buf[0]
	a.Release(m)
	return v
}

// HelperRead: a checkout handed to an in-module helper whose escape
// summary proves it retains nothing.
func HelperRead(a *arena.Arena, n int) int32 {
	m := a.Mark()
	data := arena.AllocUninit[int32](a, n)
	clear(data)
	total := sumOf(data)
	a.Release(m)
	return total
}

func sumOf(xs []int32) int32 {
	var s int32
	for i := range xs {
		s += xs[i]
	}
	return s
}

// ParkInBox: the region body hands a checkout to a helper that parks
// it in a box-typed parameter's field, which BoxTransit clears before
// the box is reused. The races pass summarizes parkIn before the
// lifetimes pass asks it, so the box prescan must already be done.
func ParkInBox(w *core.Worker, a *arena.Arena, b *scanBox, n int) {
	core.ForRange(w, 0, n, 1, func(i int) {
		tmp := arena.AllocUninit[int32](a, 4)
		parkIn(b, tmp)
	})
}

func parkIn(b *scanBox, xs []int32) { b.dst = xs }

// LocalHolder: a checkout appended into a local holder and read back
// through it; the holder never escapes, so the checkout is released in
// scope like any other.
func LocalHolder(a *arena.Arena, n int) int32 {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	var rows [][]int32
	rows = append(rows, buf)
	row := rows[0]
	v := row[0] + rows[0][1]
	a.Release(m)
	return v
}

// MergedBox: the box is a checkout on one branch and a fresh value on
// the other, released unconditionally where the branches merge; the
// release returns the checkout the first branch took.
func MergedBox(w *core.Worker, n int) int {
	var b *scanBox
	if w != nil {
		b = arena.AcquireBox[scanBox](w)
	} else {
		b = new(scanBox)
	}
	b.dst = nil
	arena.ReleaseBox(w, b)
	return n
}
