// Fixtures for the shared interprocedural core (core_test.go): one call
// of every shape the call resolver distinguishes, one declaration of
// every kind the function index must find or refuse, and recursive
// helpers whose summaries must come back as each pass's cycle answer.
// There are no parallel regions here, so the races golden does not
// move.
package bench

import (
	"strings"

	"fixture/internal/core"
)

type shaper interface{ shape() int }

type holder[T any] struct{ v T }

func (h *holder[T]) get() T { return h.v }

func plain() int { return 1 }

func identity[T any](v T) T { return v }

// asmStub has no body: the index must hand it back for the caller to
// refuse, not pretend it is absent.
func asmStub(x int) int

func resolveShapes(c *counter, s shaper, h *holder[int], fs []func()) {
	plain()
	strings.ToUpper("x")
	core.Run(nil)
	c.bump()
	identity[int](3)
	s.shape()
	f := c.bump
	f()
	func() {}()
	h.get()
	asmStub(1)
	fs[0]()
	_ = int64(len(fs))
}

// restated reads n on both sides of a reassignment: the two reads name
// one object but not one value.
func restated(n, m int) (int, int) {
	a := n + m
	n++
	return a, n + m
}

// recOffsets returns its own recursive result: the provenance summary
// must refuse at the back edge.
func recOffsets(n int) []int {
	offs := recOffsets(n - 1)
	return offs
}

// recSize is non-negative by induction, which the summaries do not do:
// the back edge answers "unproven". flatSize is the positive control.
func recSize(n int) int {
	if n == 0 {
		return 0
	}
	return recSize(n - 1)
}

func flatSize(xs []int) int { return len(xs) + 1 }

// ping/pong: the parameter write sits in pong, one hop into the cycle.
func ping(dst []int, n int) {
	if n > 0 {
		pong(dst, n-1)
	}
}

func pong(dst []int, n int) {
	dst[0] = n
	ping(dst, n-1)
}

var kept []int

// keepA/keepB: the retaining store sits in keepB.
func keepA(p []int, n int) {
	if n > 0 {
		keepB(p, n-1)
	}
}

func keepB(p []int, n int) {
	kept = p
	keepA(p, n-1)
}

// Results: what a callee returns decides whether its callers may count
// the call's result as memory derived from the arguments.
func retParam(p []int) []int { return p[1:] }

func retKept(p []int) []int {
	if len(p) > 0 {
		return p
	}
	return kept
}

func retNamed(p []int) (out []int) {
	out = kept
	return
}

func retInLit(p []int) []int {
	get := func() []int { return kept }
	_ = get
	return append(p, 1)
}
