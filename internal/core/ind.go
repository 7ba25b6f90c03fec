package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/arena"
)

// This file reproduces the paper's central library contribution: the two
// interior-unsafe adapters for irregular local read-write parallelism
// (Sec 5.1). IndForEach is the analog of par_ind_iter_mut (Listing 6(f)):
// it validates at run time that the offsets are unique before handing
// each task a disjoint element, upgrading the programmer from Scared to
// Comfortable at the price of an O(n) parallel check. IndChunks is the
// analog of par_ind_chunks_mut (Listing 7(c)): it validates that chunk
// boundaries increase monotonically, a check so cheap that Comfortable
// costs almost nothing. The *Unchecked variants are the analog of the
// unsafe-block expression (Listing 6(d)): no validation, full trust.

// DuplicateOffsetError reports that a checked SngInd traversal found two
// tasks targeting the same element.
type DuplicateOffsetError struct {
	Index  int // position in offsets of the (second) duplicate
	Offset int // the duplicated target offset
}

func (e *DuplicateOffsetError) Error() string {
	return fmt.Sprintf("core.IndForEach: duplicate offset %d (at offsets[%d]); tasks are not independent", e.Offset, e.Index)
}

// OffsetRangeError reports an offset outside the target slice.
type OffsetRangeError struct {
	Index  int
	Offset int
	Len    int
}

func (e *OffsetRangeError) Error() string {
	return fmt.Sprintf("core.IndForEach: offsets[%d] = %d out of range for target of length %d", e.Index, e.Offset, e.Len)
}

// NonMonotoneError reports that a checked RngInd traversal found chunk
// boundaries that are not monotonically non-decreasing or out of range.
type NonMonotoneError struct {
	Index int
	Lo    int
	Hi    int
	Len   int
}

func (e *NonMonotoneError) Error() string {
	return fmt.Sprintf("core.IndChunks: boundaries offsets[%d..%d] = [%d, %d) invalid for target of length %d; chunks are not disjoint", e.Index, e.Index+1, e.Lo, e.Hi, e.Len)
}

// IndForEach is the checked SngInd primitive: it invokes
// f(i, &out[offsets[i]]) for every i, after validating in parallel that
// all offsets are in range and mutually distinct. On validation failure
// it returns an error without invoking f. This run-time check is the
// price of Comfortable irregular parallelism; the paper reports it can
// cost up to 2.8x on check-dominated benchmarks (Fig 5a). When rpblint
// -certify proves the offsets unique statically, it flags the site
// elidable-check: the validation duplicates the proof and the call may
// switch to IndForEachUnchecked.
func IndForEach[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, slot *T)) error {
	countDyn(SngInd)
	if err := checkUniqueOffsets(w, len(out), offsets); err != nil {
		return err
	}
	indForEachBody(w, out, offsets, f)
	return nil
}

// IndForEachUnchecked is the unchecked SngInd primitive — the analog of
// the unsafe-Rust expression. The caller asserts that all offsets are in
// range and mutually distinct; violations are silent data races (Scared).
//
// Certificate obligation (rpblint -certify, docs/LINT.md): a call site
// is Fearless under certificate when the offsets slice provably holds
// pairwise-distinct values in [0, len(out)) at the call — accepted
// proof sources are a core.PackIndex result used unmodified, a
// complete affine fill offsets[i] = a*i+c with constant a != 0, or an
// identity fill permuted only by core.Sort/SortBy/radix.SortPairs/SortPairsAt.
// Sites without a current certificate must carry a DeclareSite entry
// or a //lint:scared marker.
func IndForEachUnchecked[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, slot *T)) {
	countDyn(SngInd)
	indForEachBody(w, out, offsets, f)
}

func indForEachBody[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, slot *T)) {
	forBlocks(w, 0, len(offsets), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i, &out[offsets[i]])
		}
	})
}

// uniqueCheck is the range-bodied offset validator. Each worker claims
// offsets in a bitmap lane of its own — a bounds test, a bit test and a
// plain store per offset, no atomics — so a duplicate the same worker
// sees twice is caught on the spot; a second pass over the lanes then
// finds any offset claimed on two of them. The shared error slot is
// polled once per range and holds the first violation claimed. The
// lanes cost workers × len(out) bits of arena scratch, at most a 32nd
// of an int32 offsets array per worker.
type uniqueCheck[I IndexInt] struct {
	offsets []I
	lanes   []uint64 // lane k = lanes[k*words : (k+1)*words], written by worker k only
	used    []bool   // lane k has been zeroed and claimed into
	words   int      // bitmap words per lane
	outLen  int
	merging bool // second pass: RunRange ranges over words, not offsets
	err     atomic.Pointer[error]
}

func (c *uniqueCheck[I]) fail(e error) { c.err.CompareAndSwap(nil, &e) }

// RunRange claims offsets[lo:hi] in the executing worker's lane, or in
// the second pass merges lanes over words [lo, hi).
//
//lint:scared worker-owned lane: rows of c.lanes are indexed by the executing worker's ID and a worker runs one range at a time, so clear(lane) and claim's marks touch this worker's row only
func (c *uniqueCheck[I]) RunRange(w *Worker, lo, hi int) {
	if c.err.Load() != nil {
		return
	}
	if c.merging {
		c.mergeRange(lo, hi)
		return
	}
	id := w.ID()
	lane := c.lanes[id*c.words : (id+1)*c.words]
	if !c.used[id] {
		clear(lane)
		c.used[id] = true
	}
	c.claim(lane, lo, hi)
}

// claim marks offsets[lo:hi] in lane, failing on the first offset that
// is out of range or already marked there.
func (c *uniqueCheck[I]) claim(lane []uint64, lo, hi int) {
	n := uint64(c.outLen)
	for i := lo; i < hi; i++ {
		// One unsigned compare covers both ends: a negative offset
		// converts to a value past any slice length.
		off := uint64(c.offsets[i])
		if off >= n {
			c.fail(&OffsetRangeError{Index: i, Offset: int(c.offsets[i]), Len: c.outLen})
			return
		}
		word, bit := off>>6, uint64(1)<<(off&63)
		if lane[word]&bit != 0 {
			c.fail(&DuplicateOffsetError{Index: i, Offset: int(off)})
			return
		}
		lane[word] |= bit
	}
}

// mergeRange looks for a bit set on two lanes among words [lo, hi).
func (c *uniqueCheck[I]) mergeRange(lo, hi int) {
	for wi := lo; wi < hi; wi++ {
		var seen uint64
		for k, used := range c.used {
			if !used {
				continue
			}
			m := c.lanes[k*c.words+wi]
			if both := seen & m; both != 0 {
				c.failDuplicate(wi*64 + bits.TrailingZeros64(both))
				return
			}
			seen |= m
		}
	}
}

// failDuplicate reports the second occurrence of off in offsets.
func (c *uniqueCheck[I]) failDuplicate(off int) {
	first := true
	for i, o := range c.offsets {
		if uint64(o) != uint64(off) {
			continue
		}
		if !first {
			c.fail(&DuplicateOffsetError{Index: i, Offset: off})
			return
		}
		first = false
	}
}

// checkUniqueOffsets validates, in parallel, that offsets are in
// [0, outLen) and mutually distinct. It returns the first violation
// found (by atomic claim, so exactly one error survives a racy run).
func checkUniqueOffsets[I IndexInt](w *Worker, outLen int, offsets []I) error {
	if len(offsets) == 0 {
		return nil
	}
	workers := 1
	if w != nil {
		workers = w.Pool().Workers()
	}
	a := arena.Of(w)
	m := a.Mark()
	c := arena.AcquireBox[uniqueCheck[I]](w)
	c.offsets, c.outLen, c.words = offsets, outLen, (outLen+63)/64
	c.lanes = arena.AllocUninit[uint64](a, workers*c.words)
	c.used = arena.Alloc[bool](a, workers)
	c.merging = false
	c.err.Store(nil)
	if w == nil {
		clear(c.lanes)
		c.claim(c.lanes, 0, len(offsets))
	} else {
		w.ForBody(0, len(offsets), 0, c)
		lanesUsed := 0
		for _, used := range c.used {
			if used {
				lanesUsed++
			}
		}
		if lanesUsed > 1 {
			c.merging = true
			w.ForBody(0, c.words, 0, c)
		}
	}
	ep := c.err.Load()
	c.offsets, c.lanes, c.used = nil, nil, nil
	arena.ReleaseBox(w, c)
	a.Release(m)
	if ep != nil {
		return *ep
	}
	return nil
}

// IndChunks is the checked RngInd primitive: offsets holds k+1 chunk
// boundaries, and f(i, out[offsets[i]:offsets[i+1]]) is invoked for each
// of the k chunks after validating in parallel that the boundaries are
// monotonically non-decreasing and within range. The check is O(k) and
// cheap relative to the chunk work, making Comfortable nearly free
// (paper Sec 5.1). Statically proved sites are flagged elidable-check
// by rpblint -certify and may switch to IndChunksUnchecked.
func IndChunks[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, chunk []T)) error {
	countDyn(RngInd)
	if len(offsets) == 0 {
		return nil
	}
	var errSlot atomic.Pointer[error]
	ForBlocks(w, 0, len(offsets)-1, 0, func(blo, bhi int) {
		for i := blo; i < bhi; i++ {
			lo, hi := int64(offsets[i]), int64(offsets[i+1])
			if lo > hi || lo < 0 || hi > int64(len(out)) {
				e := error(&NonMonotoneError{Index: i, Lo: int(lo), Hi: int(hi), Len: len(out)})
				errSlot.CompareAndSwap(nil, &e)
				return
			}
		}
	})
	if ep := errSlot.Load(); ep != nil {
		return *ep
	}
	indChunksBody(w, out, offsets, f)
	return nil
}

// IndChunksUnchecked is the unchecked RngInd primitive: the caller
// asserts boundary monotonicity (Scared).
//
// Certificate obligation (rpblint -certify, docs/LINT.md): a call site
// is Fearless under certificate when offsets provably holds
// monotonically non-decreasing boundaries within [0, len(out)] —
// accepted proof sources are a prefix sum (ScanInclusive/ScanExclusive
// over non-negative values, unmutated between scan and call, with
// len(out) bound to the scan's returned total) or an ascending affine
// fill. Sites without a current certificate must carry a DeclareSite
// entry or a //lint:scared marker.
func IndChunksUnchecked[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, chunk []T)) {
	countDyn(RngInd)
	if len(offsets) == 0 {
		return
	}
	indChunksBody(w, out, offsets, f)
}

func indChunksBody[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, chunk []T)) {
	forBlocks(w, 0, len(offsets)-1, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i, out[offsets[i]:offsets[i+1]])
		}
	})
}

// scatterBody is the closure-free SngInd loop: out[offsets[i]] = vals[i].
type scatterBody[T any, I IndexInt] struct {
	out, vals []T
	offsets   []I
}

func (s *scatterBody[T, I]) RunRange(_ *Worker, lo, hi int) {
	out, offsets, vals := s.out, s.offsets[lo:hi], s.vals[lo:hi]
	for i, off := range offsets {
		out[off] = vals[i] //lint:scared SngInd scatter: targets are distinct by the caller's contract — validated first by ScatterChecked, certified or declared at ScatterUnchecked sites
	}
}

// ScatterUnchecked writes vals[i] into out[offsets[i]] for every i, in
// parallel, as one tight loop per subrange — no per-element call. It is
// IndForEachUnchecked for the plain value scatter of Listing 6
// (out[offsets[i]] = input[i]) and carries the same certificate
// obligation: the caller asserts the offsets are in range and mutually
// distinct (Scared).
func ScatterUnchecked[T any, I IndexInt](w *Worker, out []T, offsets []I, vals []T) {
	countDyn(SngInd)
	scatter(w, out, offsets, vals)
}

func scatter[T any, I IndexInt](w *Worker, out []T, offsets []I, vals []T) {
	if len(vals) < len(offsets) {
		panic("core.Scatter: vals shorter than offsets")
	}
	b := arena.AcquireBox[scatterBody[T, I]](w)
	b.out, b.offsets, b.vals = out, offsets, vals
	if w == nil {
		b.RunRange(nil, 0, len(offsets))
	} else {
		w.ForBody(0, len(offsets), 0, b)
	}
	b.out, b.offsets, b.vals = nil, nil, nil
	arena.ReleaseBox(w, b)
}

// ScatterChecked is the Comfortable form of ScatterUnchecked: it
// validates the offsets exactly as IndForEach does and scatters only
// when they are in range and mutually distinct; on failure it returns
// the error without writing.
func ScatterChecked[T any, I IndexInt](w *Worker, out []T, offsets []I, vals []T) error {
	countDyn(SngInd)
	if err := checkUniqueOffsets(w, len(out), offsets); err != nil {
		return err
	}
	scatter(w, out, offsets, vals)
	return nil
}

// Scatter writes vals[i] into out[offsets[i]] using the expression the
// suite-wide Mode selects: ScatterChecked under ModeChecked
// (Comfortable, paying the uniqueness check), ScatterUnchecked
// otherwise (Scared, fast). Element types are arbitrary, so there is no
// synchronized form; kernels that want atomic stores (isort under
// ModeSynchronized) spell them out.
func Scatter[T any, I IndexInt](w *Worker, out []T, offsets []I, vals []T) error {
	if GetMode() == ModeChecked {
		return ScatterChecked(w, out, offsets, vals)
	}
	ScatterUnchecked(w, out, offsets, vals)
	return nil
}
