// Package bench holds the negative lifetimes fixtures: every shape one
// obligation away from confinement must be refused with a proof-chain
// reason. Only Audited carries a //lint:scared marker; every other
// refusal counts as unexplained.
package bench

import (
	"fixture/internal/arena"
)

var leaked []int32

var stash [][]int32

// UseAfterRelease reads the checkout after its covering mark was
// released: the memory has been rewound.
func UseAfterRelease(a *arena.Arena, n int) int32 {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	a.Release(m)
	return buf[0]
}

// LIFOViolation releases the outer mark while the inner one is still
// live; the inner mark's checkout is left covering reclaimed memory.
func LIFOViolation(a *arena.Arena, n int) {
	outer := a.Mark()
	inner := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	a.Release(outer)
	_ = inner
}

// CrossWorkerEscape hands the checkout to another goroutine: the
// spawning worker's arena discipline no longer covers it.
func CrossWorkerEscape(a *arena.Arena, n int, done chan struct{}) {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	go func() {
		buf[0] = 1
		done <- struct{}{}
	}()
	a.Release(m)
}

// ReturnedCheckout gives the caller a slice into memory the arena will
// rewind.
func ReturnedCheckout(a *arena.Arena, n int) []int32 {
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	return buf
}

// StaleMark Resets the arena while a mark is live: the Release is
// stale and the checkout's later use reads reclaimed memory.
func StaleMark(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	a.Reset()
	a.Release(m)
	_ = buf
}

// UninitRead reads AllocUninit memory before anything wrote it:
// garbage from earlier generations.
func UninitRead(a *arena.Arena, n int) int32 {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	v := buf[0]
	a.Release(m)
	return v
}

// PackageEscape stores the checkout into a package-level variable that
// outlives every region.
func PackageEscape(a *arena.Arena, n int) {
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	leaked = buf
}

// ChannelEscape sends the checkout to a receiver that outlives it.
func ChannelEscape(a *arena.Arena, n int, ch chan []int32) {
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	ch <- buf
}

// HelperEscape hands the checkout to an in-module helper whose escape
// summary proves it retains the memory.
func HelperEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	retain(buf)
	a.Release(m)
}

func retain(xs []int32) {
	stash = append(stash, xs)
}

// Audited hands its checkout to a dynamic callback the pass cannot see
// through; the marker records why that is tolerated.
func Audited(a *arena.Arena, n int, sink func([]int32)) {
	m := a.Mark()
	buf := arena.AllocUninit[int32](a, n)
	clear(buf)
	//lint:scared fixture: sink is a test double that does not retain the slice
	sink(buf)
	a.Release(m)
}

type wrapHolder struct{ xs []int32 }

var wrapped []wrapHolder

// WrappedEscape hands the checkout to a helper that keeps it wrapped in
// a struct literal, in a package-level slice.
func WrappedEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	stashWrapped(buf)
	a.Release(m)
}

func stashWrapped(xs []int32) {
	wrapped = append(wrapped, wrapHolder{xs})
}
