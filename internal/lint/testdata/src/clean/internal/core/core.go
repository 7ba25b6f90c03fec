// Package core is a type-checkable stand-in for the real substrate:
// the certification fixtures need go/types to resolve primitive
// signatures (closure parameter order, offset element types), and a
// substrate-role package is censused but never linted, so the stub
// adds no diagnostics of its own. Bodies are sequential reference
// semantics; only the signatures matter to the analyzer.
package core

type Worker struct{}

func (w *Worker) Join(a, b func(w *Worker)) { a(w); b(w) }

func Run(f func(w *Worker)) { f(&Worker{}) }

type Pattern int

const (
	RO Pattern = iota + 1
	Stride
	Block
	DC
	SngInd
	RngInd
	AW
)

func DeclareSite(bench, label string, p Pattern) {}

func ForRange(w *Worker, lo, hi, grain int, f func(i int)) {
	for i := lo; i < hi; i++ {
		f(i)
	}
}

func ForBlocks(w *Worker, lo, hi, grain int, f func(lo, hi int)) {
	if lo < hi {
		f(lo, hi)
	}
}

// IndexInt mirrors the real substrate's offset element constraint.
type IndexInt interface {
	~int | ~int32 | ~int64 | ~uint32
}

// Number mirrors the real substrate's scan element constraint.
type Number interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

func IndForEach[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, slot *T)) error {
	for i := range offsets {
		f(i, &out[offsets[i]])
	}
	return nil
}

func IndForEachUnchecked[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, slot *T)) {
	for i := range offsets {
		f(i, &out[offsets[i]])
	}
}

func ScatterChecked[T any, I IndexInt](w *Worker, out []T, offsets []I, vals []T) error {
	ScatterUnchecked(w, out, offsets, vals)
	return nil
}

func ScatterUnchecked[T any, I IndexInt](w *Worker, out []T, offsets []I, vals []T) {
	for i := range offsets {
		out[offsets[i]] = vals[i]
	}
}

func IndChunks[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, chunk []T)) error {
	for i := 0; i+1 < len(offsets); i++ {
		f(i, out[offsets[i]:offsets[i+1]])
	}
	return nil
}

func IndChunksUnchecked[T any, I IndexInt](w *Worker, out []T, offsets []I, f func(i int, chunk []T)) {
	for i := 0; i+1 < len(offsets); i++ {
		f(i, out[offsets[i]:offsets[i+1]])
	}
}

func PackIndex(w *Worker, n int, keep func(i int) bool) []int32 {
	var out []int32
	for i := 0; i < n; i++ {
		if keep(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

func ScanExclusive[T Number](w *Worker, xs []T) T {
	var t T
	for i := range xs {
		t, xs[i] = t+xs[i], t
	}
	return t
}

func ScanInclusive[T Number](w *Worker, xs []T) T {
	var t T
	for i := range xs {
		t += xs[i]
		xs[i] = t
	}
	return t
}

func Sort[T Number](w *Worker, xs []T) {}

func SortBy[T any](w *Worker, xs []T, less func(a, b T) bool) {}

func Fill[T any](w *Worker, xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}

func MapReduce[R any](w *Worker, n int, identity R, mapf func(i int) R, comb func(R, R) R) R {
	acc := identity
	for i := 0; i < n; i++ {
		acc = comb(acc, mapf(i))
	}
	return acc
}

func PackIndexInto(w *Worker, n int, keep func(i int) bool, dst []int32) []int32 {
	out := dst[:0]
	for i := 0; i < n; i++ {
		if keep(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

func SetBit(bm []uint64, i int32) bool {
	w := &bm[uint32(i)>>6]
	mask := uint64(1) << (uint32(i) & 63)
	old := *w
	*w |= mask
	return old&mask == 0
}

func TestBit(bm []uint64, i int32) bool {
	return bm[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0
}

func CopyInto[T any](w *Worker, dst, src []T) {
	copy(dst, src)
}

type Counter struct{ row []int32 }

func (c Counter) Add(k int) { c.row[k]++ }

type Cursor struct{ row []int32 }

func (c Cursor) Next(k int) int32 {
	at := c.row[k]
	c.row[k] = at + 1
	return at
}

type CountSortBody interface {
	CountRange(c Counter, lo, hi int)
	PlaceRange(c Cursor, lo, hi int)
}

// CountSort stands in for the counting-sort engine: starts comes back
// as the exclusive prefix sums of the keys' counts, starts[k] = n.
func CountSort[B any, P interface {
	*B
	CountSortBody
}](w *Worker, n, k int, starts []int32, body B) {
}
