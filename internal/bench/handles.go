package bench

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Exported handles on the generic graph-kernel instances for callers
// outside this package: the repository benchmark (benchmark/graphstack.go)
// runs the same kernels the registered "bfs"/"sssp"/"pr"/"tc"
// benchmarks use, instantiated over both plain and compressed CSR.

// BFSKernel is a hybrid direction-optimizing BFS over any adjacency
// representation (g and its transpose tg).
type BFSKernel[A graph.Adjacency] struct{ b *bfsInstance[A] }

// NewBFSKernel builds a reusable BFS instance rooted at src.
func NewBFSKernel[A graph.Adjacency](g, tg A, src int32) *BFSKernel[A] {
	return &BFSKernel[A]{b: newBFS(g, tg, src)}
}

// Reset clears distances and parents for the next run.
func (k *BFSKernel[A]) Reset() { k.b.reset() }

// Run executes one hybrid traversal on w's pool (sequential if w is
// nil).
func (k *BFSKernel[A]) Run(w *core.Worker) { k.b.runHybrid(w) }

// SetWant installs the oracle distances Verify checks against.
func (k *BFSKernel[A]) SetWant(want []uint32) { k.b.want = want }

// Verify checks distances against the oracle and the parent tree for
// validity.
func (k *BFSKernel[A]) Verify() error {
	if err := k.b.verify(); err != nil {
		return err
	}
	return k.b.verifyParents()
}

// BFSOracle computes exact BFS levels sequentially.
func BFSOracle[A graph.Adjacency](g A, src int32) []uint32 { return bfsOracle(g, src) }

// SSSPKernel is a delta-stepping SSSP over any weighted adjacency.
type SSSPKernel[A graph.WAdjacency] struct{ s *ssspInstance[A] }

// NewSSSPKernel builds a reusable SSSP instance rooted at src.
func NewSSSPKernel[A graph.WAdjacency](g A, src int32) *SSSPKernel[A] {
	return &SSSPKernel[A]{s: newSSSP(g, src)}
}

// Reset clears distances and queue markers for the next run.
func (k *SSSPKernel[A]) Reset() { k.s.reset() }

// Run executes one delta-stepping run at the given worker count.
func (k *SSSPKernel[A]) Run(threads int) { k.s.runDelta(threads) }

// SetWant installs the oracle distances Verify checks against.
func (k *SSSPKernel[A]) SetWant(want []uint32) { k.s.want = want }

// Verify checks distances against the oracle.
func (k *SSSPKernel[A]) Verify() error { return k.s.verify() }

// DijkstraOracle computes exact shortest-path distances sequentially.
func DijkstraOracle[A graph.WAdjacency](g A, src int32) []uint32 { return dijkstraOracle(g, src) }

// PRKernel is a synchronous pull-mode PageRank over any adjacency pair
// (forward g for out-degrees, transpose tg for the gathers). For a
// compressed configuration, pass a compressed transpose
// (graph.Builder.CompressTranspose) so every gather streams compressed
// rows.
type PRKernel[A graph.Adjacency] struct{ p *prInstance[A] }

// NewPRKernel builds a reusable PageRank instance.
func NewPRKernel[A graph.Adjacency](g, tg A) *PRKernel[A] {
	return &PRKernel[A]{p: newPR(g, tg)}
}

// SetIters caps the round count — benchmark/graphstack.go pins a fixed
// number of rounds so plain and compressed runs do identical work.
func (k *PRKernel[A]) SetIters(n int) { k.p.iters = n }

// Reset restores the uniform initial rank vector.
func (k *PRKernel[A]) Reset() { k.p.reset() }

// Run executes the pull iteration on w's pool (sequential if w is nil).
func (k *PRKernel[A]) Run(w *core.Worker) { k.p.runLibrary(w) }

// SetWant installs the oracle ranks Verify checks against, bit-exact.
func (k *PRKernel[A]) SetWant(want []float64) { k.p.want = want }

// Verify checks ranks against the oracle bit-for-bit.
func (k *PRKernel[A]) Verify() error { return k.p.verify() }

// PROracle runs the identical blocked PageRank arithmetic sequentially.
func PROracle[A graph.Adjacency](g, tg A, iters int) []float64 { return prOracle(g, tg, iters) }

// TCKernel counts triangles on a degree-ordered DAG adjacency.
type TCKernel[A graph.Adjacency] struct{ t *tcInstance[A] }

// NewTCKernel builds a reusable triangle counter over dag (sorted rows,
// each undirected edge stored once, low rank to high rank — see
// TCOrientEdges).
func NewTCKernel[A graph.Adjacency](dag A) *TCKernel[A] {
	return &TCKernel[A]{t: newTC(dag)}
}

// Run executes one count on w's pool (sequential if w is nil).
func (k *TCKernel[A]) Run(w *core.Worker) { k.t.runLibrary(w) }

// Count returns the triangle total of the last run.
func (k *TCKernel[A]) Count() int64 { return k.t.count }

// TCOrientEdges builds the degree-ordered orientation edge list of a
// symmetric graph; feed it to graph.Builder.BuildSorted (and Compress)
// to get the DAG adjacency TCKernel consumes.
func TCOrientEdges(g *graph.Graph) ([]graph.Edge, int32) { return tcOrientEdges(g) }

// TCOracle counts triangles sequentially by sorted two-pointer row
// intersection.
func TCOracle[A graph.Adjacency](dag A) int64 { return tcOracle(dag) }
