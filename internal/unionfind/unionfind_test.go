package unionfind

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// roots counts the sets of a quiescent UF: the vertices that are their
// own representative.
func roots(u *UF) int {
	n := 0
	for v := int32(0); v < int32(len(u.parent)); v++ {
		if u.Find(v) == v {
			n++
		}
	}
	return n
}

func TestBasicUnionFind(t *testing.T) {
	u := New(5)
	if roots(u) != 5 {
		t.Fatalf("fresh UF: comps=%d", roots(u))
	}
	if !u.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union should not merge")
	}
	if !u.SameSet(0, 1) || u.SameSet(0, 2) {
		t.Fatal("membership wrong")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if roots(u) != 2 {
		t.Fatalf("components = %d, want 2", roots(u))
	}
}

func TestFindRootIsSelfParent(t *testing.T) {
	u := New(10)
	u.Union(4, 7)
	r := u.Find(4)
	if u.Find(7) != r {
		t.Fatal("roots differ after union")
	}
	if u.parent[r].Load() != r {
		t.Fatal("root is not self-parented")
	}
}

func TestUnionFindMatchesOracleProperty(t *testing.T) {
	// Oracle: naive labeling with full relabeling per union.
	f := func(pairs []uint16, nRaw uint8) bool {
		n := int32(nRaw%60) + 2
		u := New(n)
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(i)
		}
		for _, p := range pairs {
			a := int32(p) % n
			b := int32(p>>8) % n
			u.Union(a, b)
			la, lb := labels[a], labels[b]
			if la != lb {
				for i := range labels {
					if labels[i] == lb {
						labels[i] = la
					}
				}
			}
		}
		for i := int32(0); i < n; i++ {
			for j := i + 1; j < n; j++ {
				if u.SameSet(i, j) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUnionsChain(t *testing.T) {
	// Union i with i+1 for all i in parallel: one component must remain.
	const n = 50000
	u := New(n)
	p := core.NewPool(4)
	defer p.Close()
	p.Do(func(w *core.Worker) {
		core.ForRange(w, 0, n-1, 0, func(i int) {
			u.Union(int32(i), int32(i+1))
		})
	})
	if c := roots(u); c != 1 {
		t.Fatalf("components = %d, want 1", c)
	}
}

// TestConcurrentUnionFindStress drives mixed Union/Find traffic from
// every worker over a random edge soup — the access pattern of the CC
// finish phase, where finds chase parents that other workers are
// concurrently hooking and halving. Run under -race in CI. The final
// structure must match a sequential union-find over the same edges both
// in membership and in exact labels (Union hooks the higher-id root
// under the lower, so every component's root is its minimum id
// regardless of interleaving), and a second pass must be idempotent.
func TestConcurrentUnionFindStress(t *testing.T) {
	const n = 30000
	const nEdges = 4 * n
	edges := make([][2]int32, nEdges)
	s := uint64(0x5eed)
	rnd := func() uint64 {
		// xorshift: deterministic edge soup, no rand dependency
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := range edges {
		edges[i] = [2]int32{int32(rnd() % n), int32(rnd() % n)}
	}
	u := New(n)
	p := core.NewPool(8)
	defer p.Close()
	p.Do(func(w *core.Worker) {
		core.ForRange(w, 0, nEdges, 0, func(i int) {
			e := edges[i]
			u.Union(e[0], e[1])
			// Interleave finds on unrelated vertices: path halving
			// races against concurrent hooks.
			u.Find(int32(i) % n)
		})
	})

	seq := New(n)
	for _, e := range edges {
		seq.Union(e[0], e[1])
	}
	for v := int32(0); v < n; v++ {
		if got, want := u.Find(v), seq.Find(v); got != want {
			t.Fatalf("label[%d] = %d, want %d", v, got, want)
		}
	}
	if roots(u) != roots(seq) {
		t.Fatalf("components = %d, want %d", roots(u), roots(seq))
	}

	// Idempotence: replaying the whole edge soup (concurrently again)
	// merges nothing and moves no label.
	before := make([]int32, n)
	for v := int32(0); v < n; v++ {
		before[v] = u.Find(v)
	}
	var merges int64
	p.Do(func(w *core.Worker) {
		merges = core.MapReduce(w, nEdges, int64(0), func(i int) int64 {
			if u.Union(edges[i][0], edges[i][1]) {
				return 1
			}
			return 0
		}, func(a, b int64) int64 { return a + b })
	})
	if merges != 0 {
		t.Fatalf("replay merged %d pairs, want 0", merges)
	}
	for v := int32(0); v < n; v++ {
		if u.Find(v) != before[v] {
			t.Fatalf("label[%d] moved on replay: %d -> %d", v, before[v], u.Find(v))
		}
	}
}

func TestConcurrentUnionsCountMerges(t *testing.T) {
	// Exactly n-1 unions can succeed when building a tree over n nodes,
	// no matter the interleaving.
	const n = 20000
	u := New(n)
	p := core.NewPool(4)
	defer p.Close()
	var merges int64
	p.Do(func(w *core.Worker) {
		merges = core.MapReduce(w, n-1, int64(0), func(i int) int64 {
			if u.Union(int32(i), int32(i+1)) {
				return 1
			}
			return 0
		}, func(a, b int64) int64 { return a + b })
	})
	if merges != n-1 {
		t.Fatalf("merges = %d, want %d", merges, n-1)
	}
}
