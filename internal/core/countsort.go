package core

// This file holds the one counting-sort engine: a stable blocked
// counting sort of n elements by keys in [0, k), the shape under radix
// sort passes, CSR construction, isort's positions and the BWT's LF
// map. The caller's body walks its own elements twice, once to count
// each block's keys and once to place each element through the block's
// own cursor; the engine owns everything between the two: the (block,
// key) count matrix, the key-major scan that turns it into cursors,
// the block rule and the loop box. The cursors hand every block a
// segment of each key's slots no other block enters, so a write
// through a slot is SngInd with independence guaranteed by the scan —
// the algorithmic guarantee of the paper's Sec 5.1 — and under
// ModeChecked the engine checks it afterwards at one compare per
// (block, key).

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/arena"
)

// countSortBlockMin is the fewest elements one block of CountSort
// covers. A block covers max(countSortBlockMin, 4k) elements, so the
// count matrix stays near a quarter of the element count for large k
// and the scan over it is small beside the placing. The rule reads n
// and k only, never the worker count, so the blocks, and with them
// every cursor, are the same on every pool.
const countSortBlockMin = 1 << 14

// countSortKeyChunk is the number of keys one task of the scan covers.
const countSortKeyChunk = 256

// countSortArenaKeys is the widest key space whose count matrix
// CountSort checks out of the calling worker's arena: a byte or radix
// digit. An arena keeps every slab it grows for the life of its pool,
// so a wider matrix — a CSR's, up to a quarter of its edge count — is
// a plain allocation that is garbage once the sort returns.
const countSortArenaKeys = 1 << 8

// lineCounters is the number of int32 counters in a 64-byte cache
// line: each block's row of the matrix starts on a line of its own.
const lineCounters = 16

// A Counter is one block's row of CountSort's count matrix, handed to
// the count half of the body.
type Counter struct{ row []int32 }

// Add counts one element of the block with key k.
func (c Counter) Add(k int) { c.row[k]++ }

// A Cursor is one block's row of write cursors, handed to the place
// half of the body.
type Cursor struct{ row []int32 }

// Next returns the slot of the block's next element with key k: the
// slots of one key come out in increasing order, and no other block's
// cursor hands out any of this block's slots.
func (c Cursor) Next(k int) int32 {
	at := c.row[k]
	c.row[k] = at + 1
	return at
}

// CountSortBody is the caller's side of CountSort, two halves each
// called once per block of elements [lo, hi). CountRange calls
// c.Add(key) once per element; PlaceRange walks the same elements in
// the same order and takes each one's slot with c.Next(key), for the
// key CountRange counted it under.
type CountSortBody interface {
	CountRange(c Counter, lo, hi int)
	PlaceRange(c Cursor, lo, hi int)
}

// countSortBody is the constraint of CountSort: a body type B whose
// pointer carries the two halves.
type countSortBody[B any] interface {
	*B
	CountSortBody
}

// Phases of countSort: the body's halves run over blocks, the scan over
// chunks of countSortKeyChunk keys.
const (
	csCount   uint8 = iota // each block's keys into its row
	csTotals               // each key's total into starts
	csCursors              // each (block, key) cursor into the matrix
	csPlace                // each element through its block's cursor
)

// countSort is CountSort's loop box. m is block-major: block b's row is
// m[b*stride : b*stride+k], stride a whole number of cache lines, so no
// two blocks' counters share a line. The scan runs key-major over it:
// each key's slots are its blocks' segments in block order.
type countSort[B any, P countSortBody[B]] struct {
	body                 B
	m, starts            []int32
	n, k, bs, nb, stride int
	phase                uint8
}

func (s *countSort[B, P]) RunRange(_ *Worker, lo, hi int) {
	m, starts, k, stride := s.m, s.starts, s.k, s.stride
	for i := lo; i < hi; i++ {
		if s.phase == csCount || s.phase == csPlace {
			row := m[i*stride : i*stride+k : i*stride+k]
			if blo, bhi := i*s.bs, min((i+1)*s.bs, s.n); s.phase == csCount {
				P(&s.body).CountRange(Counter{row}, blo, bhi)
			} else {
				P(&s.body).PlaceRange(Cursor{row}, blo, bhi)
			}
			continue
		}
		klo := i * countSortKeyChunk
		khi := min(klo+countSortKeyChunk, k)
		var acc [countSortKeyChunk]int32
		for key := klo; key < khi && s.phase == csCursors; key++ {
			acc[key-klo] = starts[key]
		}
		for b := 0; b < s.nb; b++ {
			row := m[b*stride+klo : b*stride+khi]
			for j, c := range row {
				if s.phase == csCursors {
					row[j] = acc[j] //lint:scared cursor scan: j+klo lies in this invocation's own key chunk [klo, khi), inside [0, k) with k <= stride, so b*stride+klo+j is distinct for every (block, key) (FuzzCountSort fails if two blocks' segments overlap)
				}
				acc[j] += c
			}
		}
		if s.phase == csTotals {
			for key := klo; key < khi; key++ {
				starts[key] = acc[key-klo]
			}
		}
	}
}

// pass runs one phase over [0, hi), hi blocks or key chunks.
func (s *countSort[B, P]) pass(w *Worker, phase uint8, hi int) {
	s.phase = phase
	if w == nil || hi <= 1 {
		s.RunRange(nil, 0, hi)
		return
	}
	w.ForBody(0, hi, 1, s)
}

// CountSort is the one blocked counting-sort engine: it sorts elements
// [0, n) stably by keys in [0, k) that body assigns, through body's two
// halves (CountSortBody). Afterwards starts[key] is the first slot of
// key and starts[k] is n — exactly a CSR's offsets — and the place half
// has handed out every slot in [0, n) once: element i's slot is below
// element j's whenever i's key is smaller, or the keys are equal and
// i < j. starts has length k+1, or is nil for a caller that needs no
// offsets; any other length panics. The elements are cut into blocks of
// max(16384, 4k), by n and k alone. body is copied into a box of the
// calling worker's and, for up to 256 keys, the matrix is checked out
// of its arena, so a steady-state call on a pool allocates nothing. The
// engine counts its count half as one Block use in the run-time census;
// the place half's pattern is the caller's write, so the caller counts it.
//
// Under ModeChecked the engine checks, once the place half is done,
// that every block drew exactly the slots it counted, one compare per
// (block, key), and panics naming the first block and key that did
// not: a place half that keys an element unlike the count half would
// otherwise write into another block's segment.
func CountSort[B any, P countSortBody[B]](w *Worker, n, k int, starts []int32, body B) {
	if int64(n) > math.MaxInt32 || starts != nil && len(starts) != k+1 {
		panic(fmt.Sprintf("core.CountSort: n = %d (at most %d), len(starts) = %d (want k+1 = %d, or nil)", n, math.MaxInt32, len(starts), k+1))
	}
	s := arena.AcquireBox[countSort[B, P]](w)
	s.body = body
	bad := s.run(w, n, k, starts)
	*s = countSort[B, P]{}
	arena.ReleaseBox(w, s)
	if bad != "" {
		panic(bad)
	}
}

// run sorts with its scratch checked out of w's arena, or made past
// countSortArenaKeys, and returns the ModeChecked verdict: "" when every
// block drew what it counted.
func (s *countSort[B, P]) run(w *Worker, n, k int, starts []int32) string {
	var a *arena.Arena // nil: arena.Alloc makes
	if k <= countSortArenaKeys {
		a = arena.Of(w)
	}
	am := a.Mark()
	if starts == nil {
		starts = arena.AllocUninit[int32](a, k+1)
	}
	s.n, s.k, s.bs = n, k, max(countSortBlockMin, 4*k)
	s.nb, s.stride = (n+s.bs-1)/s.bs, (k+lineCounters-1)&^(lineCounters-1)
	m := arena.Alloc[int32](a, s.nb*s.stride+lineCounters-1)
	s.m, s.starts = m[int(-uintptr(unsafe.Pointer(unsafe.SliceData(m)))/4)&(lineCounters-1):], starts
	chunks := (k + countSortKeyChunk - 1) / countSortKeyChunk
	countDyn(Block)
	s.pass(w, csCount, s.nb)
	s.pass(w, csTotals, chunks)
	starts[k] = ScanExclusive(w, starts[:k])
	s.pass(w, csCursors, chunks)
	var first []int32 // ModeChecked: the cursors before the place half
	if GetMode() == ModeChecked {
		first = arena.AllocUninit[int32](a, len(s.m))
		copy(first, s.m)
	}
	s.pass(w, csPlace, s.nb)
	bad := s.drewCounted(first)
	s.m, s.starts = nil, nil
	a.Release(am)
	return bad
}

// drewCounted compares each block's cursors after the place half with
// where they must end: where the next block's began (first holds the
// cursors before the place half, nil outside ModeChecked), or at the
// next key's first slot for the last block.
func (s *countSort[B, P]) drewCounted(first []int32) string {
	for b := 0; first != nil && b < s.nb; b++ {
		for key, at := range s.m[b*s.stride : b*s.stride+s.k] {
			from, end := first[b*s.stride+key], s.starts[key+1]
			if b+1 < s.nb {
				end = first[(b+1)*s.stride+key]
			}
			if at != end {
				return fmt.Sprintf("core.CountSort: block %d placed %d elements of key %d but counted %d", b, at-from, key, end-from)
			}
		}
	}
	return ""
}
