package bench

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestTCOpenHubSetFallsBack orients the edges by plain vertex id. The
// hubs are still the highest-degree vertices, but now a hub's out-row
// holds whatever neighbors have a larger id, hubs or not: the fill must
// find the hub set open, and the run must count every triangle through
// CountIn alone.
func TestTCOpenHubSetFallsBack(t *testing.T) {
	pools := []*core.Pool{core.NewPool(4), core.NewPool(1)}
	defer pools[0].Close()
	defer pools[1].Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		g := graph.LoadUndirectedSorted(nil, input, ScaleTest, 0x7c1)
		n := g.NumVertices()
		var edges []graph.Edge
		for v := int32(0); v < n; v++ {
			for _, u := range g.RowInto(v, nil) {
				if v < u {
					edges = append(edges, graph.Edge{From: v, To: u})
				}
			}
		}
		var b, cb graph.Builder
		dag := b.BuildSorted(nil, n, edges)
		cdag := cb.Compress(nil, dag)
		want := tcOracle(dag)
		if degreeOrdered, _ := tcOrientEdges(g); len(degreeOrdered) != len(edges) {
			t.Fatalf("%s: %d edges by id order, %d by degree order", input, len(edges), len(degreeOrdered))
		}
		for _, h := range []int{64, tcHubCount(int(n), dag.NumEdges())} {
			p, c := newTCHubbed(dag, h), newTCHubbed(cdag, h)
			hm := make([]uint64, h*((h+63)/64))
			p.fillHubRows(hm, 0, h, nil)
			if p.hubsClosed(hm) {
				t.Fatalf("%s, %d hubs: an id-ordered DAG passed the closure check", input, h)
			}
			tcCheckAll(t, input+" plain", pools, p, want)
			tcCheckAll(t, input+" cgraph", pools, c, want)
		}
	}
}

// TestTCTinyGraphs: fewer vertices than one bitmap word holds, no edges
// at all, and no vertices — the hub bitmap, its rank prefix and the
// matrix must size and index without going out of range.
func TestTCTinyGraphs(t *testing.T) {
	pools := []*core.Pool{core.NewPool(4)}
	defer pools[0].Close()
	var k10 []graph.Edge
	for v := int32(0); v < 10; v++ {
		for u := v + 1; u < 10; u++ {
			k10 = append(k10, graph.Edge{From: v, To: u}, graph.Edge{From: u, To: v})
		}
	}
	for _, c := range []struct {
		name  string
		n     int32
		edges []graph.Edge
		want  int64
	}{
		{"K10", 10, k10, 120},
		{"K10 and 53 isolated vertices", 63, k10, 120},
		{"100 isolated vertices", 100, nil, 0},
		{"one vertex", 1, nil, 0},
	} {
		var gb, db, cb graph.Builder
		g := gb.BuildSorted(nil, c.n, c.edges)
		oriented, n := tcOrientEdges(g)
		dag := db.BuildSorted(nil, n, oriented)
		cdag := cb.Compress(nil, dag)
		if got := tcOracle(dag); got != c.want {
			t.Fatalf("%s: oracle counts %d triangles, want %d", c.name, got, c.want)
		}
		tcCheckAll(t, c.name+" plain", pools, newTC(dag), c.want)
		tcCheckAll(t, c.name+" cgraph", pools, newTC(cdag), c.want)
		for _, h := range []int{0, 1, int(n)} {
			tcCheckAll(t, c.name+" plain", pools, newTCHubbed(dag, h), c.want)
			tcCheckAll(t, c.name+" cgraph", pools, newTCHubbed(cdag, h), c.want)
		}
	}
}

// benchTCHubs times the library expression of one instance in its
// steady state, like benchGraphKernel at the repository root.
func benchTCHubs[A graph.Adjacency](b *testing.B, t *tcInstance[A], want int64) {
	pool := core.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.ReportAllocs()
	pool.Do(func(w *core.Worker) {
		t.runLibrary(w) // warm-up: grow arena scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.runLibrary(w)
		}
		b.StopTimer()
	})
	if t.count != want {
		b.Fatalf("counted %d triangles, want %d", t.count, want)
	}
}

// BenchmarkGraphTCHubs sweeps the hub count around the H that newTC
// derives, on the R-MAT shape of the repository benchmark's graph
// workloads and over both representations, so the derived H is checked
// against its neighbours rather than asserted: derived should sit on
// the flat part of the curve, none (the all-CountIn loop) and all (an
// n x n matrix) at its two ends.
func BenchmarkGraphTCHubs(b *testing.B) {
	core.SetMode(core.ModeUnchecked)
	const scale = 15
	var gb, db, cb graph.Builder
	g := gb.BuildSorted(nil, 1<<scale, graph.Symmetrize(nil, graph.RMAT(nil, scale, 16, 1)))
	edges, n := tcOrientEdges(g)
	dag := db.BuildSorted(nil, n, edges)
	cdag := cb.Compress(nil, dag)
	want := tcOracle(dag)
	h := tcHubCount(int(n), dag.NumEdges())
	for _, c := range []struct {
		name string
		h    int
	}{{"none", 0}, {"quarter", h / 4}, {"half", h / 2}, {"derived", h}, {"double", 2 * h}, {"quad", 4 * h}} {
		b.Run("plain/"+c.name, func(b *testing.B) { benchTCHubs(b, newTCHubbed(dag, c.h), want) })
		b.Run("comp/"+c.name, func(b *testing.B) { benchTCHubs(b, newTCHubbed(cdag, c.h), want) })
	}
}
