// Positive write-certification fixtures: one function per proof form
// the races pass accepts. Every shared write here must classify as
// worker-local, atomic, lock-guarded, or index-disjoint — a refusal in
// this file is a regression.
package bench

import (
	"sync"
	"sync/atomic"

	"fixture/internal/core"
)

// TaskAffine: the canonical disjoint scatter, out[i] owned by task i.
func TaskAffine(w *core.Worker, out []int32, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		out[i] = int32(i)
	})
}

// AtomicAdd: shared scalar updated only through sync/atomic.
func AtomicAdd(w *core.Worker, n int) int64 {
	var total atomic.Int64
	core.ForRange(w, 0, n, 0, func(i int) {
		total.Add(int64(i))
	})
	return total.Load()
}

// LockGuarded: shared accumulator under a held mutex.
func LockGuarded(w *core.Worker, n int) int {
	var mu sync.Mutex
	sum := 0
	core.ForRange(w, 0, n, 0, func(i int) {
		mu.Lock()
		sum += i
		mu.Unlock()
	})
	return sum
}

// HandedSlot: ForEachIdx hands each invocation its own element.
func HandedSlot(w *core.Worker, xs []int) {
	core.ForEachIdx(w, xs, 0, func(i int, x *int) {
		*x = i
	})
}

// BlockOwner: task b owns the block [b*bs, (b+1)*bs).
func BlockOwner(w *core.Worker, out []int, nb, bs int) {
	core.ForRange(w, 0, nb, 0, func(b int) {
		lo, hi := b*bs, (b+1)*bs
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	})
}

// ResidueClass: task d owns the nb-slot segment starting at d*nb.
func ResidueClass(w *core.Worker, counts []int32, nd, nb int) {
	core.ForRange(w, 0, nd, 0, func(d int) {
		for b := 0; b < nb; b++ {
			counts[d*nb+b]++
		}
	})
}

// UniqueHandout: an atomic counter hands each write a fresh slot.
func UniqueHandout(w *core.Worker, out []int32, n int) int32 {
	var cnt atomic.Int32
	core.ForRange(w, 0, n, 0, func(i int) {
		if i%2 == 0 {
			out[cnt.Add(1)-1] = int32(i)
		}
	})
	return cnt.Load()
}

// WorkerOwned: each worker writes only its own slot of partial.
func WorkerOwned(w *core.Worker, partial []int) {
	w.For(0, len(partial), 1, func(w2 *core.Worker, lo, hi int) {
		partial[w2.ID()] += hi - lo
	})
}

// RangeOwner: a For body owns exactly its handed subrange.
func RangeOwner(w *core.Worker, out []int) {
	w.For(0, len(out), 1, func(w2 *core.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = i
		}
	})
}

// BlocksRangeOwner: a ForBlocks body owns exactly its handed subrange,
// like a For body, without being handed a worker.
func BlocksRangeOwner(w *core.Worker, out []int32, n int) {
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int32(i)
		}
	})
}

// BlocksWindowCopy: copy into the window of dst the handed subrange
// names is a bulk write to the body's own elements.
func BlocksWindowCopy(w *core.Worker, dst, src []int32) {
	core.ForBlocks(w, 0, len(src), 0, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// BlocksResidue: a loop over the handed subrange of [0, nd) owns the
// residue classes of its indices, as the per-task index would.
func BlocksResidue(w *core.Worker, counts []int32, nd, nb int) {
	core.ForBlocks(w, 0, nd, 1, func(dlo, dhi int) {
		for d := dlo; d < dhi; d++ {
			for b := 0; b < nb; b++ {
				counts[b*nd+d]++
			}
		}
	})
}

// JoinBranches: each Join branch writes a variable the other never
// touches.
func JoinBranches(w *core.Worker, xs []int) (int, int) {
	var a, b int
	mid := len(xs) / 2
	w.Join(
		func(w *core.Worker) { a = sum(xs[:mid]) },
		func(w *core.Worker) { b = sum(xs[mid:]) },
	)
	return a, b
}

// JoinHandout: the divide-and-conquer handout — each branch passes a
// callee a disjoint half of the same backing slice.
func JoinHandout(w *core.Worker, xs []int) {
	mid := len(xs) / 2
	w.Join(
		func(w *core.Worker) { fill(xs[:mid], 1) },
		func(w *core.Worker) { fill(xs[mid:], 2) },
	)
}

// CallsClean: a callee whose writes stay within memory it allocates is
// invisible to the region; the result lands in a task-affine slot.
func CallsClean(w *core.Worker, res [][]int, n int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		res[i] = derive(i)
	})
}

// WindowHandout: each task appends into its own capped window of one
// buffer, [i*s, (i+1)*s); the three-index slice keeps the callee's
// appends inside the block the task owns.
func WindowHandout(w *core.Worker, buf []int32, n, s int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		collect(buf[i*s:i*s:(i+1)*s], i)
	})
}

func collect(dst []int32, v int) []int32 {
	return append(dst[:0], int32(v))
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func fill(xs []int, v int) {
	for i := range xs {
		xs[i] = v
	}
}

func derive(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// blankRead discards a read: the blank identifier stores nothing.
func blankRead(w *core.Worker, src []int32) {
	core.ForRange(w, 0, len(src), 0, func(i int) {
		_ = src[i]
	})
}

// appendWindow appends inside the window capped to its task: with no
// spare capacity past (i+1)*s, the append stays in task i's block.
func appendWindow(w *core.Worker, buf []int32, n, s int) {
	core.ForRange(w, 0, n, 0, func(i int) {
		tmp := append(buf[i*s:i*s:(i+1)*s], int32(i))
		_ = tmp
	})
}

// cursorBody is a CountSort body whose place half writes each element
// to the slot its block's own cursor hands out.
type cursorBody struct{ keys, dst []int32 }

func (b *cursorBody) CountRange(c core.Counter, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Add(int(b.keys[i]))
	}
}

func (b *cursorBody) PlaceRange(c core.Cursor, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.dst[c.Next(int(b.keys[i]))] = int32(i)
	}
}

// CursorHandout: the counting-sort scatter, each slot handed out once.
func CursorHandout(w *core.Worker, keys, dst []int32, k int) {
	core.CountSort(w, len(keys), k, nil, cursorBody{keys: keys, dst: dst})
}

// arrayWindow copies into slices of arrays: of one declared in the
// region body, the task's own memory, which makes no site, and of the
// element ForEachIdx hands the task, a worker-local row.
func arrayWindow(w *core.Worker, rows [][4]int32, src []int32) {
	core.ForEachIdx(w, rows, 0, func(i int, row *[4]int32) {
		var acc [4]int32
		copy(acc[:], src)
		copy(row[:], acc[:])
	})
}
