package bench

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestSortBucketPassEdges runs the sort kernel's bucket pass on shapes
// its sampled splitters make awkward: all-equal keys (every key lands
// in the last bucket, so the 255 empty ones repeat their starts), two
// distinct keys, and lengths one past a block and of three blocks. Each
// runs on the nil worker and on 1-, 2- and 8-worker pools, unchecked
// and checked — where IndChunks checks the starts are monotone and
// core.CountSort that every block drew what it counted — and must match
// slices.Sort.
func TestSortBucketPassEdges(t *testing.T) {
	spread := func(i int) uint32 { return uint32(i) * 2654435761 }
	shapes := []struct {
		name string
		n    int
		key  func(i int) uint32
	}{
		{"all-equal", 2*sortBlock + 5, func(int) uint32 { return 7 }},
		{"two-keys", 2*sortBlock + 5, func(i int) uint32 { return uint32(i%3/2) << 30 }},
		{"block+1", sortBlock + 1, spread},
		{"3-blocks", 3 * sortBlock, spread},
	}
	pools := []*core.Pool{nil}
	for _, workers := range []int{1, 2, 8} {
		pool := core.NewPool(workers)
		defer pool.Close()
		pools = append(pools, pool)
	}
	defer core.SetMode(core.GetMode())
	for _, sh := range shapes {
		orig := make([]uint32, sh.n)
		for i := range orig {
			orig[i] = sh.key(i)
		}
		want := slices.Clone(orig)
		slices.Sort(want)
		s := &sortInstance{orig: orig, keys: slices.Clone(orig), want: want}
		for _, mode := range []core.Mode{core.ModeUnchecked, core.ModeChecked} {
			core.SetMode(mode)
			for _, pool := range pools {
				s.reset()
				workers := 0
				if pool == nil {
					s.runLibrary(nil)
				} else {
					workers = pool.Workers()
					pool.Do(s.runLibrary)
				}
				if err := s.verify(); err != nil {
					t.Errorf("%s (n=%d), mode %v, %d workers: %v", sh.name, sh.n, mode, workers, err)
				}
			}
		}
	}
}
