package specfor

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/seqgen"
)

var testPool *core.Pool

func on(f func(w *core.Worker)) { testPool.Do(f) }

func TestAllIndependentCommitFirstTry(t *testing.T) {
	const n = 10000
	done := make([]int32, n)
	var stats Stats
	on(func(w *core.Worker) {
		stats = Run(w, n, 512, Loop{
			Reserve: func(i int) bool { return true },
			Commit: func(i int) bool {
				atomic.StoreInt32(&done[i], 1)
				return true
			},
		})
	})
	if stats.Committed != n || stats.Conflicts != 0 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, d := range done {
		if d != 1 {
			t.Fatalf("item %d not committed", i)
		}
	}
}

func TestDroppedItemsSkipCommit(t *testing.T) {
	const n = 1000
	var commits atomic.Int64
	var stats Stats
	on(func(w *core.Worker) {
		stats = Run(w, n, 100, Loop{
			Reserve: func(i int) bool { return i%3 == 0 },
			Commit: func(i int) bool {
				if i%3 != 0 {
					t.Errorf("commit called for dropped item %d", i)
				}
				commits.Add(1)
				return true
			},
		})
	})
	want := (n + 2) / 3
	if int(commits.Load()) != want || stats.Dropped != n-want {
		t.Fatalf("commits=%d dropped=%d want commits=%d", commits.Load(), stats.Dropped, want)
	}
}

// contendedLoop builds the canonical contention benchmark: each item
// claims two pseudo-random cells; a cell may be owned by one item.
type contendedLoop struct {
	cells []atomic.Uint32 // reservation per cell
	owner []int32         // committed owner per cell (-1 = free)
	a, b  []int32         // the two cells item i wants
}

const free = ^uint32(0)

func newContended(nItems, nCells int, seed uint64) *contendedLoop {
	r := seqgen.NewRng(seed)
	c := &contendedLoop{
		cells: make([]atomic.Uint32, nCells),
		owner: make([]int32, nCells),
		a:     make([]int32, nItems),
		b:     make([]int32, nItems),
	}
	for i := range c.cells {
		c.cells[i].Store(free)
		c.owner[i] = -1
	}
	for i := 0; i < nItems; i++ {
		c.a[i] = int32(r.Intn(uint64(2*i), nCells))
		c.b[i] = int32(r.Intn(uint64(2*i+1), nCells))
		if c.b[i] == c.a[i] {
			c.b[i] = (c.b[i] + 1) % int32(nCells)
		}
	}
	return c
}

func (c *contendedLoop) loop() Loop {
	return Loop{
		Reserve: func(i int) bool {
			if atomic.LoadInt32(&c.owner[c.a[i]]) >= 0 || atomic.LoadInt32(&c.owner[c.b[i]]) >= 0 {
				return false // a wanted cell is gone
			}
			core.WriteMin32(&c.cells[c.a[i]], uint32(i))
			core.WriteMin32(&c.cells[c.b[i]], uint32(i))
			return true
		},
		Commit: func(i int) bool {
			if c.cells[c.a[i]].Load() == uint32(i) && c.cells[c.b[i]].Load() == uint32(i) {
				atomic.StoreInt32(&c.owner[c.a[i]], int32(i))
				atomic.StoreInt32(&c.owner[c.b[i]], int32(i))
				return true
			}
			return false
		},
		PostRound: func(retry []int32) {
			for _, i := range retry {
				c.cells[c.a[i]].Store(free)
				c.cells[c.b[i]].Store(free)
			}
		},
	}
}

func (c *contendedLoop) check(t *testing.T) map[int32]bool {
	t.Helper()
	owners := map[int32]bool{}
	perOwner := map[int32]int{}
	for _, o := range c.owner {
		if o >= 0 {
			owners[o] = true
			perOwner[o]++
		}
	}
	for o, n := range perOwner {
		if n != 2 {
			t.Fatalf("item %d owns %d cells, want 2", o, n)
		}
	}
	// Maximality: every uncommitted item must want an owned cell.
	for i := range c.a {
		if owners[int32(i)] {
			continue
		}
		if c.owner[c.a[i]] < 0 && c.owner[c.b[i]] < 0 {
			t.Fatalf("item %d could still commit — loop not maximal", i)
		}
	}
	return owners
}

func TestContendedExclusiveOwnership(t *testing.T) {
	c := newContended(5000, 800, 1)
	var stats Stats
	on(func(w *core.Worker) { stats = Run(w, 5000, 256, c.loop()) })
	owners := c.check(t)
	if stats.Committed != len(owners) {
		t.Fatalf("stats.Committed = %d, owners = %d", stats.Committed, len(owners))
	}
	if stats.Rounds < 2 {
		t.Fatalf("contended run finished in %d rounds — no contention exercised?", stats.Rounds)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// The committed set must be identical no matter how many workers run
	// the loop — the determinism PBBS's speculative_for promises.
	results := make([]map[int32]bool, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		c := newContended(3000, 500, 2)
		p := core.NewPool(workers)
		p.Do(func(w *core.Worker) { Run(w, 3000, 128, c.loop()) })
		p.Close()
		results = append(results, c.check(t))
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("worker counts disagree on committed count: %d vs %d",
				len(results[i]), len(results[0]))
		}
		for o := range results[0] {
			if !results[i][o] {
				t.Fatalf("item %d committed under 1 worker but not under run %d", o, i)
			}
		}
	}
}

func TestGranularityDefaults(t *testing.T) {
	var stats Stats
	on(func(w *core.Worker) {
		stats = Run(w, 100, 0, Loop{
			Reserve: func(int) bool { return true },
			Commit:  func(int) bool { return true },
		})
	})
	if stats.Committed != 100 {
		t.Fatalf("committed %d", stats.Committed)
	}
	// Zero items: no rounds at all.
	on(func(w *core.Worker) {
		stats = Run(w, 0, 0, Loop{
			Reserve: func(int) bool { t.Error("reserve on empty loop"); return false },
			Commit:  func(int) bool { return true },
		})
	})
	if stats.Rounds != 0 {
		t.Fatalf("empty loop ran %d rounds", stats.Rounds)
	}
}

func BenchmarkSpecforContended(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := newContended(5000, 800, uint64(i))
		on(func(w *core.Worker) { Run(w, 5000, 256, c.loop()) })
	}
}
