package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seqgen"
)

// prIters pins the PageRank round count so plain and compressed runs do
// identical work.
const prIters = 10

// graphStack is one R-MAT input in every representation the graph
// kernels traverse, built by the pipeline of named phases below. Each
// product has its own Builder, so dropping the pointers of one
// representation frees its buffers (a *Graph returned by a Builder
// keeps that whole Builder alive).
type graphStack struct {
	scale, edgeFactor int
	seed              uint64
	n                 int32

	edges []graph.Edge // generated list
	sym   []graph.Edge // symmetrized, sorted, duplicate-free

	b, tb, cb, wb, cwb, db, cdb *graph.Builder

	g, tg, dag    *graph.Graph
	wg            *graph.WGraph
	cg, ctg, cdag *graph.CGraph
	cwg           *graph.CWGraph

	or *oracles
}

// oracles are the reference outputs every timed graph-kernel run is
// checked against; graph_plain and graph_comp share the same arrays.
type oracles struct {
	roots []int32
	bfs   [][]uint32
	sssp  []uint32
	pr    []float64
	tc    int64
}

func newGraphStack(scale, edgeFactor int, seed uint64) *graphStack {
	nb := func() *graph.Builder { return new(graph.Builder) }
	return &graphStack{
		scale: scale, edgeFactor: edgeFactor, seed: seed, n: int32(1) << scale,
		b: nb(), tb: nb(), cb: nb(), wb: nb(), cwb: nb(), db: nb(), cdb: nb(),
	}
}

// phase is one named step of the construction pipeline.
type phase struct {
	name string
	run  func(w *core.Worker)
}

// genPhase generates the directed R-MAT edge list (set-up everywhere).
func (s *graphStack) genPhase() phase {
	return phase{"gen", func(w *core.Worker) { s.edges = graph.RMAT(w, s.scale, s.edgeFactor, s.seed) }}
}

// buildPhases is the write side of the graph layer, in dependency
// order: the timed pass of the build workload, and part of the set-up
// of every other user of a graphStack.
func (s *graphStack) buildPhases() []phase {
	return []phase{
		{"symmetrize", func(w *core.Worker) { s.sym = graph.Symmetrize(w, s.edges) }},
		{"build_sorted", func(w *core.Worker) { s.g = s.b.BuildSorted(w, s.n, s.sym) }},
		{"transpose", func(w *core.Worker) {
			s.tg = s.tb.Transpose(w, s.g)
			graph.SortAdjacency(w, s.tg)
		}},
		{"compress", func(w *core.Worker) { s.cg = s.cb.Compress(w, s.g) }},
		{"compress_transpose", func(w *core.Worker) { s.ctg = s.cb.CompressTranspose(w, s.tg) }},
		{"weighted", func(w *core.Worker) {
			wedges := graph.AddWeights(w, s.sym, 1<<16, s.seed+1)
			s.wg = s.wb.BuildWSorted(w, s.n, wedges)
			s.cwg = s.cwb.CompressW(w, s.wg)
		}},
	}
}

// traversalPhases prepares what only the traversal kernels need: the
// degree-ordered DAG for triangle counting, and the oracles.
func (s *graphStack) traversalPhases(nRoots int) []phase {
	return []phase{
		{"dag", func(w *core.Worker) {
			de, _ := bench.TCOrientEdges(s.g)
			s.dag = s.db.BuildSorted(w, s.n, de)
			s.cdag = s.cdb.Compress(w, s.dag)
		}},
		{"oracle", func(*core.Worker) {
			o := &oracles{roots: s.pickRoots(nRoots)}
			for _, r := range o.roots {
				o.bfs = append(o.bfs, bench.BFSOracle(s.g, r))
			}
			o.sssp = bench.DijkstraOracle(s.wg, o.roots[0])
			o.pr = bench.PROracle(s.g, s.tg, prIters)
			o.tc = bench.TCOracle(s.dag)
			s.or = o
		}},
	}
}

// pickRoots draws traversal sources from the seed, skipping isolated
// vertices (an R-MAT graph has many; a traversal from one does no work).
func (s *graphStack) pickRoots(k int) []int32 {
	r := seqgen.NewRng(s.seed ^ 0xb5ad4eceda1ce2a9)
	roots := make([]int32, 0, k)
	for i := uint64(0); len(roots) < k; i++ {
		v := int32(r.Intn(i, int(s.n)))
		if s.g.Degree(v) > 0 {
			roots = append(roots, v)
		}
	}
	return roots
}

// runPhases executes phases on the pool, one Do per phase, recording a
// span around each and its wall seconds in secs (which may be nil).
func runPhases(e *env, secs map[string]float64, phases ...phase) {
	for _, ph := range phases {
		id := e.tr.begin(ph.name, nil)
		t0 := time.Now()
		e.pool.Do(ph.run)
		if secs != nil {
			secs[ph.name] = time.Since(t0).Seconds()
		}
		e.tr.end(id, nil)
	}
}

// rowsEqual checks that two representations hold the same rows.
func rowsEqual(a, b graph.Adjacency) error {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("shape differs: %d/%d vertices, %d/%d edges",
			a.NumVertices(), b.NumVertices(), a.NumEdges(), b.NumEdges())
	}
	bufA := make([]int32, a.MaxDegree())
	bufB := make([]int32, b.MaxDegree())
	for v := int32(0); v < a.NumVertices(); v++ {
		if !slices.Equal(a.RowInto(v, bufA), b.RowInto(v, bufB)) {
			return fmt.Errorf("row %d differs between representations", v)
		}
	}
	return nil
}

// verifyPhase checks the product of one build phase after its timer has
// stopped: the compressed forms by Validate plus row-by-row equality
// with the plain rows they encode, the plain forms structurally.
func (s *graphStack) verifyPhase(name string) error {
	switch name {
	case "symmetrize":
		for i := 1; i < len(s.sym); i++ {
			a, b := s.sym[i-1], s.sym[i]
			if a.From > b.From || (a.From == b.From && a.To >= b.To) {
				return fmt.Errorf("symmetrized list not sorted and duplicate-free at %d", i)
			}
		}
		if len(s.sym) == 0 {
			return fmt.Errorf("symmetrized list is empty")
		}
	case "build_sorted":
		if s.g.N != s.n || int(s.g.M()) != len(s.sym) {
			return fmt.Errorf("CSR has %d vertices and %d edges, want %d and %d", s.g.N, s.g.M(), s.n, len(s.sym))
		}
	case "transpose":
		// The input is symmetric, so the sorted transpose equals the graph.
		if !slices.Equal(s.tg.Offs, s.g.Offs) || !slices.Equal(s.tg.Adj, s.g.Adj) {
			return fmt.Errorf("sorted transpose of a symmetric graph differs from the graph")
		}
	case "compress":
		if err := s.cg.Validate(); err != nil {
			return err
		}
		return rowsEqual(s.g, s.cg)
	case "compress_transpose":
		if err := s.ctg.Validate(); err != nil {
			return err
		}
		return rowsEqual(s.tg, s.ctg)
	case "weighted":
		if err := s.cwg.Validate(); err != nil {
			return err
		}
		if err := rowsEqual(s.wg, s.cwg); err != nil {
			return err
		}
		if !slices.Equal(s.wg.Wgt, s.cwg.Wgt) {
			return fmt.Errorf("compressed weights differ from plain weights")
		}
	}
	return nil
}

// traversalKernels instantiates the four generic traversal kernels over
// one representation. rep names it ("plain" or "comp"). A pass runs BFS
// once from every root and each other kernel repeats times; BFS gets
// the fewest runs because checking its parent tree costs many times
// what the traversal does.
func traversalKernels[A graph.Adjacency, W graph.WAdjacency](rep string, repeats int, g, tg, dag A, wg W, o *oracles) []*kernel {
	bfs := make([]*bench.BFSKernel[A], len(o.roots))
	for i, r := range o.roots {
		bfs[i] = bench.NewBFSKernel(g, tg, r)
		bfs[i].SetWant(o.bfs[i])
	}
	sssp := bench.NewSSSPKernel(wg, o.roots[0])
	sssp.SetWant(o.sssp)
	pr := bench.NewPRKernel(g, tg)
	pr.SetIters(prIters)
	pr.SetWant(o.pr)
	tc := bench.NewTCKernel(dag)
	m := g.NumEdges()
	return []*kernel{
		{
			name: "bfs", variant: rep, rep: rep, inner: len(bfs), size: func() int64 { return m * int64(len(bfs)) },
			reset:  func(i int) { bfs[i].Reset() },
			run:    func(w *core.Worker, _ int, i int) { bfs[i].Run(w) },
			verify: func(i int) error { return bfs[i].Verify() },
		},
		{
			name: "sssp", variant: rep, rep: rep, inner: repeats, size: func() int64 { return wg.NumEdges() * int64(repeats) },
			reset:  func(int) { sssp.Reset() },
			run:    func(_ *core.Worker, threads int, _ int) { sssp.Run(threads) },
			verify: func(int) error { return sssp.Verify() },
		},
		{
			name: "pr", variant: rep, rep: rep, inner: repeats, size: func() int64 { return m * int64(repeats) },
			reset:  func(int) { pr.Reset() },
			run:    func(w *core.Worker, _ int, _ int) { pr.Run(w) },
			verify: func(int) error { return pr.Verify() },
		},
		{
			name: "tc", variant: rep, rep: rep, inner: repeats, size: func() int64 { return dag.NumEdges() * int64(repeats) },
			run: func(w *core.Worker, _ int, _ int) { tc.Run(w) },
			verify: func(int) error {
				if tc.Count() != o.tc {
					return fmt.Errorf("tc: counted %d triangles, oracle says %d", tc.Count(), o.tc)
				}
				return nil
			},
		},
	}
}
