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

// The escape shapes below come in pairs: each inline checkout has a
// helper twin that does the same to its parameter, so the flow walk
// and the callee summary must refuse them alike.

type holder struct{ xs []int32 }

// AppendEscape appends the checkout to a package-level slice.
func AppendEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	stash = append(stash, buf)
	a.Release(m)
}

// AppendLocalEscape appends the checkout to a local slice that then
// becomes package-level.
func AppendLocalEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	var held [][]int32
	held = append(held, buf)
	stash = held
	a.Release(m)
}

// HelperAppendEscape is AppendLocalEscape through a helper.
func HelperAppendEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	appendHeld(buf)
	a.Release(m)
}

func appendHeld(xs []int32) {
	var held [][]int32
	held = append(held, xs)
	stash = held
}

// ElementEscape stores an element of a local holder of the checkout
// into a package-level variable.
func ElementEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	held := [][]int32{buf}
	leaked = held[0]
	a.Release(m)
}

// HelperElementEscape is ElementEscape through a helper.
func HelperElementEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	elementHeld(buf)
	a.Release(m)
}

func elementHeld(xs []int32) {
	held := [][]int32{xs}
	leaked = held[0]
}

// FieldEscape stores a field of a local holder of the checkout into a
// package-level variable.
func FieldEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	h := holder{xs: buf}
	leaked = h.xs
	a.Release(m)
}

// HelperFieldEscape is FieldEscape through a helper.
func HelperFieldEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	fieldHeld(buf)
	a.Release(m)
}

func fieldHeld(xs []int32) {
	h := holder{xs: xs}
	leaked = h.xs
}

// CopyEscape copies a holder of the checkout into a package-level
// slice's elements.
func CopyEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	copy(stash, [][]int32{buf})
	a.Release(m)
}

// HelperCopyEscape is CopyEscape through a helper.
func HelperCopyEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	copyHeld(buf)
	a.Release(m)
}

func copyHeld(xs []int32) {
	copy(stash, [][]int32{xs})
}

// ResliceEscape stores the checkout through a reslice of a local
// holder, then reads it back through the holder itself.
func ResliceEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	held := make([][]int32, 2)
	tail := held[1:]
	tail[0] = buf
	leaked = held[1]
	a.Release(m)
}

// HelperResliceEscape is ResliceEscape through a helper.
func HelperResliceEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	resliceHeld(buf)
	a.Release(m)
}

func resliceHeld(xs []int32) {
	held := make([][]int32, 2)
	tail := held[1:]
	tail[0] = xs
	leaked = held[1]
}

// AliasEscape stores the checkout through a second name of a local
// holder.
func AliasEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	held := make([][]int32, 1)
	alias := held
	alias[0] = buf
	leaked = held[0]
	a.Release(m)
}

// HelperAliasEscape is AliasEscape through a helper.
func HelperAliasEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	aliasHeld(buf)
	a.Release(m)
}

func aliasHeld(xs []int32) {
	held := make([][]int32, 1)
	alias := held
	alias[0] = xs
	leaked = held[0]
}

// PointerEscape stores the checkout through a pointer to a local
// holder.
func PointerEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	var h holder
	p := &h
	p.xs = buf
	leaked = h.xs
	a.Release(m)
}

// HelperPointerEscape is PointerEscape through a helper.
func HelperPointerEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	pointerHeld(buf)
	a.Release(m)
}

func pointerHeld(xs []int32) {
	var h holder
	p := &h
	p.xs = xs
	leaked = h.xs
}

// LiteralEscape hands the checkout to a function literal invoked in
// place, which stores it.
func LiteralEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	func(x []int32) { leaked = x }(buf)
	a.Release(m)
}

// HelperLiteralEscape is LiteralEscape through a helper.
func HelperLiteralEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	literalHeld(buf)
	a.Release(m)
}

func literalHeld(xs []int32) {
	func(x []int32) { leaked = x }(xs)
}

// RangeEscape leaks the checkout through the value variable of a range
// over a local holder.
func RangeEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	held := [][]int32{buf}
	for _, row := range held {
		leaked = row
	}
	a.Release(m)
}

// HelperRangeEscape is RangeEscape through a helper.
func HelperRangeEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	rangeHeld(buf)
	a.Release(m)
}

func rangeHeld(xs []int32) {
	held := [][]int32{xs}
	for _, row := range held {
		leaked = row
	}
}

// CommaOKEscape leaks the checkout through a comma-ok type assertion.
func CommaOKEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	var v any = buf
	if got, ok := v.([]int32); ok {
		leaked = got
	}
	a.Release(m)
}

// HelperCommaOKEscape is CommaOKEscape through a helper.
func HelperCommaOKEscape(a *arena.Arena, n int) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	commaOKHeld(buf)
	a.Release(m)
}

func commaOKHeld(xs []int32) {
	var v any = xs
	if got, ok := v.([]int32); ok {
		leaked = got
	}
}

// GoArgEscape hands the checkout to a new goroutine as the argument of
// the goroutine's literal.
func GoArgEscape(a *arena.Arena, n int, done chan struct{}) {
	m := a.Mark()
	buf := arena.Alloc[int32](a, n)
	go func(x []int32) {
		x[0] = 1
		close(done)
	}(buf)
	<-done
	a.Release(m)
}
