package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestBuildCSRSmall(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}}
	var g *Graph
	on(func(w *core.Worker) { g = BuildCSR(w, 3, edges) })
	if g.N != 3 || g.M() != 4 {
		t.Fatalf("N=%d M=%d", g.N, g.M())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatalf("degrees wrong: %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	seen := map[int32]bool{}
	for _, v := range g.Neighbors(0) {
		seen[v] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("neighbors of 0: %v", g.Neighbors(0))
	}
}

func TestBuildCSRPreservesMultiplicity(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 1}}
	g := BuildCSR(nil, 2, edges)
	if g.Degree(0) != 2 {
		t.Fatalf("multi-edge lost: degree = %d", g.Degree(0))
	}
}

func TestBuildCSRMatchesSequentialProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int32(nRaw%50) + 1
		edges := make([]Edge, len(raw))
		for i, r := range raw {
			edges[i] = Edge{From: int32(r) % n, To: int32(r>>8) % n}
		}
		var g *Graph
		on(func(w *core.Worker) { g = BuildCSR(w, n, edges) })
		// Degree counts must match a sequential tally.
		want := make([]int32, n)
		for _, e := range edges {
			want[e.From]++
		}
		for v := int32(0); v < n; v++ {
			if g.Degree(v) != want[v] {
				return false
			}
		}
		// Every edge must appear exactly once in CSR.
		count := map[Edge]int{}
		for _, e := range edges {
			count[e]++
		}
		for v := int32(0); v < n; v++ {
			for _, u := range g.Neighbors(v) {
				count[Edge{From: v, To: u}]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWCSRKeepsWeights(t *testing.T) {
	edges := []WEdge{{0, 1, 5}, {1, 0, 7}, {0, 2, 9}}
	g := BuildWCSR(nil, 3, edges)
	adj, wgt := g.WNeighbors(0)
	if len(adj) != 2 || len(wgt) != 2 {
		t.Fatalf("adj=%v wgt=%v", adj, wgt)
	}
	for i, v := range adj {
		var want uint32
		if v == 1 {
			want = 5
		} else {
			want = 9
		}
		if wgt[i] != want {
			t.Fatalf("weight of edge 0->%d = %d, want %d", v, wgt[i], want)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {2, 2}, {1, 2}}
	var sym []Edge
	on(func(w *core.Worker) { sym = Symmetrize(w, edges) })
	want := []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}}
	if len(sym) != len(want) {
		t.Fatalf("sym = %v", sym)
	}
	for i := range want {
		if sym[i] != want[i] {
			t.Fatalf("sym = %v, want %v", sym, want)
		}
	}
}

func TestSymmetrizeSelfLoopOnly(t *testing.T) {
	if got := Symmetrize(nil, []Edge{{3, 3}}); len(got) != 0 {
		t.Fatalf("self loop survived: %v", got)
	}
}

func TestRMATShape(t *testing.T) {
	var edges []Edge
	on(func(w *core.Worker) { edges = RMAT(w, 10, 6, 1) })
	n := int32(1 << 10)
	if len(edges) != 6*1024 {
		t.Fatalf("edge count = %d", len(edges))
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			t.Fatalf("edge out of range: %+v", e)
		}
		if e.From == e.To {
			t.Fatalf("self loop survived: %+v", e)
		}
	}
	// RMAT skew: low-id vertices should carry far more than average.
	g := BuildCSR(nil, n, edges)
	stats := ComputeStats(nil, "rmat", g)
	if float64(stats.MaxDegree) < 4*stats.AvgDegree {
		t.Fatalf("rmat not skewed: max=%d avg=%.1f", stats.MaxDegree, stats.AvgDegree)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(nil, 8, 4, 7)
	b := RMAT(nil, 8, 4, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
}

func TestPowerLawShape(t *testing.T) {
	edges := PowerLaw(nil, 2000, 10, 2)
	if len(edges) != 20000 {
		t.Fatalf("edge count = %d", len(edges))
	}
	indeg := make([]int, 2000)
	for _, e := range edges {
		if e.From == e.To {
			t.Fatalf("self loop: %+v", e)
		}
		if e.To < 0 || e.To >= 2000 || e.From < 0 || e.From >= 2000 {
			t.Fatalf("out of range: %+v", e)
		}
		indeg[e.To]++
	}
	// Heavy tail: the top vertex should absorb many times the mean.
	max := 0
	for _, d := range indeg {
		if d > max {
			max = d
		}
	}
	if max < 50 {
		t.Fatalf("power law not skewed: max in-degree %d", max)
	}
}

func TestRoadGridShape(t *testing.T) {
	edges := RoadGrid(nil, 30, 20, 3)
	n := 600
	ratio := float64(len(edges)) / float64(n)
	if ratio < 1.8 || ratio > 3.0 {
		t.Fatalf("|E|/|V| = %.2f, want ~2.4", ratio)
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= int32(n) || e.To < 0 || e.To >= int32(n) || e.From == e.To {
			t.Fatalf("bad edge %+v", e)
		}
	}
}

func TestAddWeightsSymmetricAndBounded(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {2, 5}, {5, 2}}
	wedges := AddWeights(nil, edges, 100, 9)
	if wedges[0].W != wedges[1].W || wedges[2].W != wedges[3].W {
		t.Fatal("reverse edges got different weights")
	}
	for _, we := range wedges {
		if we.W < 1 || we.W > 100 {
			t.Fatalf("weight %d out of [1,100]", we.W)
		}
	}
}

func TestLoadUndirectedAllInputs(t *testing.T) {
	for _, name := range GraphInputs {
		var g *Graph
		on(func(w *core.Worker) { g = LoadUndirected(w, name, ScaleTest, 1) })
		if g.N == 0 || g.M() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		// Undirected: adjacency must be symmetric.
		for v := int32(0); v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				found := false
				for _, back := range g.Neighbors(u) {
					if back == v {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s: edge %d->%d has no reverse", name, v, u)
				}
			}
		}
	}
}

func TestLoadUndirectedWeightedSymmetricWeights(t *testing.T) {
	var g *WGraph
	on(func(w *core.Worker) { g = LoadUndirectedWeighted(w, InputRoad, ScaleTest, 1) })
	weight := func(u, v int32) (uint32, bool) {
		adj, wgt := g.WNeighbors(u)
		for i, x := range adj {
			if x == v {
				return wgt[i], true
			}
		}
		return 0, false
	}
	for v := int32(0); v < g.N; v++ {
		adj, wgt := g.WNeighbors(v)
		for i, u := range adj {
			back, ok := weight(u, v)
			if !ok || back != wgt[i] {
				t.Fatalf("asymmetric weight on %d-%d", v, u)
			}
		}
	}
}

func TestUndirectedEdgeListHalved(t *testing.T) {
	edges, n := UndirectedEdgeList(nil, InputRoad, ScaleTest, 1)
	if n != 600 {
		t.Fatalf("n = %d", n)
	}
	for _, e := range edges {
		if e.From >= e.To {
			t.Fatalf("edge not canonical: %+v", e)
		}
	}
}

func TestUnknownInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LoadUndirected(nil, "nope", ScaleTest, 1)
}

func TestComputeStatsString(t *testing.T) {
	g := BuildCSR(nil, 3, []Edge{{0, 1}, {0, 2}, {1, 2}})
	s := ComputeStats(nil, "tiny", g)
	if s.V != 3 || s.E != 3 || s.MaxDegree != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestGeneratorsDeterministicAcrossParallelism(t *testing.T) {
	p1 := core.NewPool(1)
	p3 := core.NewPool(3)
	defer p1.Close()
	defer p3.Close()
	var a, b []Edge
	p1.Do(func(w *core.Worker) { a = PowerLaw(w, 1000, 8, 5) })
	p3.Do(func(w *core.Worker) { b = PowerLaw(w, 1000, 8, 5) })
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs across pool sizes", i)
		}
	}
	if c := RoadGrid(nil, 20, 10, 3); len(c) != len(RoadGrid(nil, 20, 10, 3)) {
		t.Fatal("RoadGrid not deterministic")
	}
}

func BenchmarkBuildCSR(b *testing.B) {
	edges := RMAT(nil, 14, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on(func(w *core.Worker) { _ = BuildCSR(w, 1<<14, edges) })
	}
}

// BenchmarkTranspose times Transpose followed by SortAdjacency, the
// pipeline's transpose step, on a scale-15, edge-factor-16 R-MAT (1 M
// symmetrized edges) at one and two workers. The transpose's rows come
// out sorted, so the row sort only confirms them.
func BenchmarkTranspose(b *testing.B) {
	var src Builder
	g := src.BuildSorted(nil, 1<<15, Symmetrize(nil, RMAT(nil, 15, 16, 1)))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := core.NewPool(workers)
			defer pool.Close()
			var dst Builder
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Do(func(w *core.Worker) { SortAdjacency(w, dst.Transpose(w, g)) })
			}
		})
	}
}
