package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// keyedBody sorts elements by keys[i]: the place half records each
// element's slot in pos. placeShift keys the place half (key+shift)%k
// instead, a body whose halves disagree.
type keyedBody struct {
	keys       []int32
	pos        []int32
	k          int
	placeShift int
}

func (b *keyedBody) CountRange(c Counter, lo, hi int) {
	for _, key := range b.keys[lo:hi] {
		c.Add(int(key))
	}
}

func (b *keyedBody) PlaceRange(c Cursor, lo, hi int) {
	keys, pos := b.keys, b.pos
	for i := lo; i < hi; i++ {
		pos[i] = c.Next((int(keys[i]) + b.placeShift) % b.k)
	}
}

// countSortOracle is the sequential stable counting sort: each
// element's slot and each key's first slot, with n in starts[k].
func countSortOracle(keys []int32, k int) (pos, starts []int32) {
	starts = make([]int32, k+1)
	for _, key := range keys {
		starts[key+1]++
	}
	for key := 0; key < k; key++ {
		starts[key+1] += starts[key]
	}
	next := slices.Clone(starts[:k])
	pos = make([]int32, len(keys))
	for i, key := range keys {
		pos[i] = next[key]
		next[key]++
	}
	return pos, starts
}

// checkCountSort sorts keys on w and compares slots and starts with the
// oracle.
func checkCountSort(t *testing.T, label string, w *Worker, keys []int32, k int) {
	t.Helper()
	wantPos, wantStarts := countSortOracle(keys, k)
	pos := make([]int32, len(keys))
	starts := make([]int32, k+1)
	CountSort(w, len(keys), k, starts, keyedBody{keys: keys, pos: pos, k: k})
	if !slices.Equal(starts, wantStarts) {
		t.Errorf("%s: n=%d k=%d: starts differ from the sequential oracle", label, len(keys), k)
	}
	if !slices.Equal(pos, wantPos) {
		t.Errorf("%s: n=%d k=%d: slots differ from the sequential oracle", label, len(keys), k)
	}
}

// FuzzCountSort checks CountSort's slots and starts against a
// sequential stable counting sort, on the nil worker and on 1-, 2- and
// 8-worker pools: n across block boundaries, n = 0, k = 1 and k > n.
func FuzzCountSort(f *testing.F) {
	f.Add(uint32(0), uint16(3), uint64(1))
	f.Add(uint32(1), uint16(1), uint64(2))
	f.Add(uint32(5), uint16(40), uint64(3))
	f.Add(uint32(countSortBlockMin-1), uint16(256), uint64(4))
	f.Add(uint32(countSortBlockMin), uint16(7), uint64(5))
	f.Add(uint32(3*countSortBlockMin+17), uint16(256), uint64(6))
	f.Add(uint32(2*countSortBlockMin+5), uint16(1), uint64(7))
	f.Add(uint32(9*countSortBlockMin), uint16(20000), uint64(8)) // 4k-wide blocks, several key chunks
	pools := []*Pool{NewPool(1), NewPool(2), NewPool(8)}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	f.Fuzz(func(t *testing.T, n uint32, k uint16, seed uint64) {
		n %= 1 << 18
		kk := int(k)%(1<<15) + 1
		keys := make([]int32, n)
		x := seed | 1
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = int32(x % uint64(kk))
		}
		checkCountSort(t, "nil", nil, keys, kk)
		for _, p := range pools {
			p.Do(func(w *Worker) { checkCountSort(t, fmt.Sprintf("%d workers", p.Workers()), w, keys, kk) })
		}
	})
}

// TestCountSortCheckedNamesBlockAndKey runs a body whose place half
// keys every element one key up from its count half (squares mod 4 are
// 0 or 1, so block 0 counts key 0 and draws none of it): ModeChecked
// must panic naming that block and key, and ModeUnchecked must not
// look.
func TestCountSortCheckedNamesBlockAndKey(t *testing.T) {
	const n, k = 3*countSortBlockMin + 100, 4
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(i * i % k)
	}
	body := keyedBody{keys: keys, pos: make([]int32, n), k: k, placeShift: 1}
	defer SetMode(GetMode())
	for _, pooled := range []bool{false, true} {
		run := func(f func(w *Worker)) {
			if pooled {
				on(f)
			} else {
				f(nil)
			}
		}
		SetMode(ModeUnchecked)
		run(func(w *Worker) { CountSort(w, n, k, nil, body) })
		SetMode(ModeChecked)
		var msg string
		run(func(w *Worker) {
			defer func() { msg = fmt.Sprint(recover()) }()
			CountSort(w, n, k, nil, body)
		})
		if !strings.Contains(msg, "block 0") || !strings.Contains(msg, "key 0") {
			t.Errorf("checked CountSort with mis-keyed place half: got %q, want a panic naming block 0 and key 0", msg)
		}
	}
}

// blockStartsBody records in *starts where each block of a CountSort
// starts, keying every element 0.
type blockStartsBody struct{ starts *[]int }

func (b *blockStartsBody) CountRange(c Counter, lo, hi int) {
	*b.starts = append(*b.starts, lo)
	for range hi - lo {
		c.Add(0)
	}
}

func (b *blockStartsBody) PlaceRange(c Cursor, lo, hi int) {
	for range hi - lo {
		c.Next(0)
	}
}

// TestCountSortBlockRule pins the block rule, max(1<<14, 4k) elements
// a block, at its boundaries. graph's tests copy the 1<<14 minimum as
// csrBlockMin and size their edge lists by it to cross blocks, so a
// change to the rule fails here before it quietly shrinks theirs.
func TestCountSortBlockRule(t *testing.T) {
	for _, c := range []struct {
		n, k int
		want []int
	}{
		{1 << 14, 1, []int{0}},
		{1<<14 + 1, 1, []int{0, 1 << 14}},
		{1<<15 + 1, 1 << 13, []int{0, 1 << 15}},
	} {
		var starts []int
		CountSort(nil, c.n, c.k, nil, blockStartsBody{&starts})
		if !slices.Equal(starts, c.want) {
			t.Errorf("n=%d k=%d: blocks start at %v, want %v", c.n, c.k, starts, c.want)
		}
	}
}

// TestCountSortStartsLength passes starts one longer and one shorter
// than k+1: either must panic naming both lengths. A longer starts
// would otherwise come back with a zero tail past starts[k] = n, no
// longer monotone, and a shorter one die on a bare index.
func TestCountSortStartsLength(t *testing.T) {
	const k = 3
	keys := []int32{0, 1, 1, 2}
	for _, size := range []int{k + 3, k} {
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			CountSort(nil, len(keys), k, make([]int32, size), keyedBody{keys: keys, pos: make([]int32, len(keys)), k: k})
		}()
		if want := fmt.Sprintf("len(starts) = %d (want k+1 = %d", size, k+1); !strings.Contains(msg, want) {
			t.Errorf("CountSort with %d-long starts for k=%d: got %q, want a panic containing %q", size, k, msg, want)
		}
	}
}
