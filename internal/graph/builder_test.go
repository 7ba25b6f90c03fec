package graph

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seqgen"
)

func TestTransposeSmallDirected(t *testing.T) {
	// 0->1, 0->2, 2->1: transpose is 1->0, 2->0, 1->2.
	g := BuildCSR(nil, 3, []Edge{{0, 1}, {0, 2}, {2, 1}})
	var b Builder
	tg := b.Transpose(nil, g)
	if tg.N != 3 || tg.M() != 3 {
		t.Fatalf("N=%d M=%d", tg.N, tg.M())
	}
	wantDeg := []int32{0, 2, 1}
	for v := int32(0); v < 3; v++ {
		if tg.Degree(v) != wantDeg[v] {
			t.Fatalf("in-degree of %d = %d, want %d", v, tg.Degree(v), wantDeg[v])
		}
	}
	if ns := tg.Neighbors(2); len(ns) != 1 || ns[0] != 0 {
		t.Fatalf("in-neighbors of 2 = %v", ns)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	// Transposing twice recovers the original edge multiset.
	f := func(raw []uint16, nRaw uint8) bool {
		n := int32(nRaw%40) + 1
		edges := make([]Edge, len(raw))
		for i, r := range raw {
			edges[i] = Edge{From: int32(r) % n, To: int32(r>>8) % n}
		}
		g := BuildCSR(nil, n, edges)
		var b1, b2 Builder
		tg := b1.Transpose(nil, g)
		back := b2.Transpose(nil, tg)
		count := map[Edge]int{}
		for _, e := range edges {
			count[e]++
		}
		for v := int32(0); v < n; v++ {
			for _, u := range back.Neighbors(v) {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderReuseZeroSteadyGrowth pins the point of the Builder: a
// second Build of the same shape must reuse every buffer, so the
// returned graph aliases the first one's storage.
func TestBuilderReuseAliasesBuffers(t *testing.T) {
	edges := RMAT(nil, 8, 4, 3)
	var b Builder
	g1 := b.Build(nil, 1<<8, edges)
	adj1 := &g1.Adj[0]
	g2 := b.Build(nil, 1<<8, edges)
	if &g2.Adj[0] != adj1 {
		t.Fatal("rebuild did not reuse the adjacency buffer")
	}
	// And the rebuild must still be correct.
	want := make([]int32, 1<<8)
	for _, e := range edges {
		want[e.From]++
	}
	for v := int32(0); v < 1<<8; v++ {
		if g2.Degree(v) != want[v] {
			t.Fatalf("degree %d = %d, want %d", v, g2.Degree(v), want[v])
		}
	}
}

func TestBuilderBuildWMatchesBuildWCSR(t *testing.T) {
	edges := []WEdge{{0, 1, 5}, {1, 0, 7}, {0, 2, 9}, {2, 1, 3}}
	var b Builder
	g := b.BuildW(nil, 3, edges)
	ref := BuildWCSR(nil, 3, edges)
	if g.M() != ref.M() {
		t.Fatalf("M=%d want %d", g.M(), ref.M())
	}
	for v := int32(0); v < 3; v++ {
		adj, wgt := g.WNeighbors(v)
		sum := uint32(0)
		for i := range adj {
			sum += uint32(adj[i]) + wgt[i]
		}
		radj, rwgt := ref.WNeighbors(v)
		rsum := uint32(0)
		for i := range radj {
			rsum += uint32(radj[i]) + rwgt[i]
		}
		if sum != rsum || len(adj) != len(radj) {
			t.Fatalf("vertex %d: adjacency mismatch", v)
		}
	}
}

// TestSortRowWMatchesPairSort co-sorts random (neighbor, weight) rows
// in each of sortRowW's regimes — already ascending, short enough for
// insertion, and packed into arena scratch — and compares with a sort
// of the pairs. Ids repeat within a row, so the weight tie-break counts.
func TestSortRowWMatchesPairSort(t *testing.T) {
	rng := seqgen.NewRng(0x50a7)
	type pair struct {
		adj int32
		wgt uint32
	}
	var offs []int32
	var adj []int32
	var wgt []uint32
	var want []pair
	draw := uint64(0)
	for _, n := range []int{0, 1, 2, 3, rowInsertionMax - 1, rowInsertionMax, rowInsertionMax + 1, 100, 1000, 5000} {
		for _, ascending := range []bool{false, true} {
			row := make([]pair, n)
			for i := range row {
				row[i] = pair{int32(rng.Intn(draw, n/2+1)), uint32(rng.Intn(draw+1, 1<<16))}
				draw += 2
			}
			sorted := slices.Clone(row)
			slices.SortFunc(sorted, func(a, b pair) int {
				return cmp.Or(cmp.Compare(a.adj, b.adj), cmp.Compare(a.wgt, b.wgt))
			})
			if ascending {
				row = sorted
			}
			offs = append(offs, int32(len(adj)))
			for _, p := range row {
				adj, wgt = append(adj, p.adj), append(wgt, p.wgt)
			}
			want = append(want, sorted...)
		}
	}
	offs = append(offs, int32(len(adj)))
	check := func(name string, w *core.Worker) {
		wg := &WGraph{Graph: Graph{N: int32(len(offs) - 1), Offs: offs, Adj: slices.Clone(adj)}, Wgt: slices.Clone(wgt)}
		SortAdjacencyW(w, wg)
		for i, p := range want {
			if wg.Adj[i] != p.adj || wg.Wgt[i] != p.wgt {
				v, _ := slices.BinarySearch(offs, int32(i+1))
				t.Fatalf("%s: row %d (length %d) differs from the sorted pairs at entry %d", name, v-1, offs[v]-offs[v-1], int32(i)-offs[v-1])
			}
		}
	}
	check("nil worker", nil)
	for _, p := range symPools {
		p.pool.Do(func(w *core.Worker) { check(p.name, w) })
	}
}

// TestBuilderNamesFirstBadEdgeInParallel plants two out-of-range edges
// far enough apart to land in different subranges of the validation
// pass: the panic must name the earlier one at every worker count.
func TestBuilderNamesFirstBadEdgeInParallel(t *testing.T) {
	const n = 1 << 10
	edges := RMAT(nil, 10, 32, 5)
	edges[len(edges)-3].From = n
	edges[9000].To = -7
	wedges := AddWeights(nil, edges, 8, 1)
	want := fmt.Sprintf("graph: edge 9000 (%d -> -7) has an endpoint outside [0, %d)", edges[9000].From, n)
	for _, p := range symPools {
		for _, weighted := range []bool{false, true} {
			p.pool.Do(func(w *core.Worker) {
				defer func() {
					if msg, _ := recover().(string); msg != want {
						t.Errorf("%s, weighted %v: panic %q, want %q", p.name, weighted, msg, want)
					}
				}()
				var b Builder
				if weighted {
					b.BuildW(w, n, wedges)
				} else {
					b.Build(w, n, edges)
				}
			})
		}
	}
}

// stableCSR is the sequential reference of the CSR counting sort: edge
// i lands in row keys[i] after every earlier edge of that row, with
// vals[i] (and wgts[i], when wgts is not nil) as its entry.
func stableCSR(n int32, keys, vals []int32, wgts []uint32) (offs, adj []int32, wgt []uint32) {
	rows := make([][]int, n)
	for i, k := range keys {
		rows[k] = append(rows[k], i)
	}
	offs = make([]int32, 0, n+1)
	for _, row := range rows {
		offs = append(offs, int32(len(adj)))
		for _, i := range row {
			adj = append(adj, vals[i])
			if wgts != nil {
				wgt = append(wgt, wgts[i])
			}
		}
	}
	return append(offs, int32(len(adj))), adj, wgt
}

// shuffledWEdges draws m weighted edges over n vertices in no order.
// Targets come from a third of the ids and weights from four values, so
// rows repeat targets and whole edges repeat.
func shuffledWEdges(n int32, m int, seed uint64) []WEdge {
	rng := seqgen.NewRng(seed)
	edges := make([]WEdge, m)
	for i := range edges {
		d := uint64(3 * i)
		edges[i] = WEdge{From: int32(rng.Intn(d, int(n))), To: int32(rng.Intn(d+1, int(n)/3+1)), W: uint32(rng.Intn(d+2, 4))}
	}
	return edges
}

// checkInputOrder compares Build, BuildW and the Transpose of the built
// graph with stableCSR on a nil worker and on every shared pool: rows
// come out in input order, the same at every worker count, and the
// transpose's rows, whose sources arrive ascending, come out sorted.
func checkInputOrder(t *testing.T, name string, n int32, wedges []WEdge) {
	t.Helper()
	m := len(wedges)
	edges := make([]Edge, m)
	from, to, ws := make([]int32, m), make([]int32, m), make([]uint32, m)
	for i, e := range wedges {
		edges[i] = Edge{From: e.From, To: e.To}
		from[i], to[i], ws[i] = e.From, e.To, e.W
	}
	offs, adj, wgt := stableCSR(n, from, to, ws)
	var src []int32
	for u := range n {
		for range offs[u+1] - offs[u] {
			src = append(src, u)
		}
	}
	toffs, tadj, _ := stableCSR(n, adj, src, nil)
	same := func(what, workers string, g *Graph, offs, adj []int32) {
		t.Helper()
		if g.N != n || !slices.Equal(g.Offs[:n+1], offs) || !slices.Equal(g.Adj[:g.M()], adj) {
			t.Fatalf("%s, %s: %s differs from the stable reference", name, workers, what)
		}
	}
	check := func(workers string, w *core.Worker) {
		t.Helper()
		var b, wb, tb Builder
		g := b.Build(w, n, edges)
		same("Build", workers, g, offs, adj)
		wg := wb.BuildW(w, n, wedges)
		same("BuildW", workers, &wg.Graph, offs, adj)
		if !slices.Equal(wg.Wgt[:m], wgt) {
			t.Fatalf("%s, %s: BuildW weights differ from the stable reference", name, workers)
		}
		tg := tb.Transpose(w, g)
		same("Transpose", workers, tg, toffs, tadj)
		for v := range n {
			if !slices.IsSorted(tg.Neighbors(v)) {
				t.Fatalf("%s, %s: transpose row %d is not sorted", name, workers, v)
			}
		}
	}
	check("nil worker", nil)
	for _, p := range symPools {
		p.pool.Do(func(w *core.Worker) { check(p.name, w) })
	}
}

// TestBuildKeepsInputOrder covers one block, several blocks of
// csrBlockMin edges, and blocks of 4n edges when n is large.
func TestBuildKeepsInputOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int32
		m    int
	}{
		{"no edges", 5, 0},
		{"one vertex", 1, 100},
		{"one block", 40, 1000},
		{"four blocks", 1000, 3*csrBlockMin + 123},
		{"blocks of 4n", 40000, 10*40000 + 7},
	} {
		checkInputOrder(t, c.name, c.n, shuffledWEdges(c.n, c.m, uint64(c.m)))
	}
	// Every edge twice, the copies a block apart.
	twice := shuffledWEdges(300, csrBlockMin, 9)
	checkInputOrder(t, "every edge twice", 300, append(twice, twice...))
}

// FuzzBuild draws a shuffled edge list from the seed, up to three
// blocks of edges, and compares Build, BuildW and Transpose with the
// stable reference at every worker count.
func FuzzBuild(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint32(0))
	f.Add(uint64(1), uint16(40), uint32(1000))
	f.Add(uint64(2), uint16(999), uint32(2*csrBlockMin+5))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, mRaw uint32) {
		n := int32(nRaw%5000) + 1
		checkInputOrder(t, "fuzz", n, shuffledWEdges(n, int(mRaw%(3*csrBlockMin)), seed))
	})
}
