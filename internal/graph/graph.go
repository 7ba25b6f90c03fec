// Package graph provides the compressed-sparse-row graph substrate the
// PBBS graph benchmarks run on, plus synthetic generators standing in
// for the paper's inputs (Table 2): a power-law generator for the
// Hyperlink-like "link" input, an R-MAT generator with Graph500
// parameters for "rmat", and a grid-with-shortcuts generator for the
// road-network-like "road" input.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/radix"
	"repro/internal/seqgen"
)

// Edge is a directed edge (From -> To).
type Edge struct{ From, To int32 }

// Graph is an unweighted graph in CSR form. Vertex v's out-neighbors are
// Adj[Offs[v]:Offs[v+1]]. Offsets are int32, limiting graphs to 2^31-1
// edges — far beyond the scale of this reproduction.
type Graph struct {
	N    int32
	Offs []int32 // length N+1
	Adj  []int32 // length Offs[N]
}

// M returns the number of (directed) edges stored.
func (g *Graph) M() int32 { return g.Offs[g.N] }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int32) int32 { return g.Offs[v+1] - g.Offs[v] }

// Neighbors returns the out-neighbor slice of v. Callers must not
// mutate it.
func (g *Graph) Neighbors(v int32) []int32 { return g.Adj[g.Offs[v]:g.Offs[v+1]] }

// WGraph is a weighted graph in CSR form; Wgt[i] is the weight of edge
// Adj[i].
type WGraph struct {
	Graph
	Wgt []uint32
}

// WNeighbors returns the neighbor and weight slices of v.
func (g *WGraph) WNeighbors(v int32) ([]int32, []uint32) {
	lo, hi := g.Offs[v], g.Offs[v+1]
	return g.Adj[lo:hi], g.Wgt[lo:hi]
}

// BuildCSR builds a CSR graph from a directed edge list with a
// one-shot Builder, each row in input order; see Builder for the
// counting sort and the reusable form.
func BuildCSR(w *core.Worker, n int32, edges []Edge) *Graph {
	var b Builder
	return b.Build(w, n, edges)
}

// WEdge is a weighted directed edge.
type WEdge struct {
	From, To int32
	W        uint32
}

// BuildWCSR builds a weighted CSR graph from a weighted edge list with
// a one-shot Builder.
func BuildWCSR(w *core.Worker, n int32, edges []WEdge) *WGraph {
	var b Builder
	return b.BuildW(w, n, edges)
}

// Symmetrize returns the undirected edge list of edges: each (u,v) with
// u != v contributes (u,v) and (v,u), with exact duplicates removed.
// The result is sorted by (From, To), duplicate-free and exactly sized.
// Vertex ids must be non-negative; a negative endpoint panics naming
// the first such edge.
//
// It is an integer sort (docs/GRAPH.md "Symmetrize"): both directions
// of every edge are packed into keys from<<vb | to, vb the bit width of
// the largest endpoint, radix-sorted on 2*vb bits, and the sorted keys
// are counted per block, scanned, and unpacked without self-loops and
// repeats. The sort scratch is local to the call, so nothing the size
// of the edge list outlives it.
func Symmetrize(w *core.Worker, edges []Edge) []Edge {
	m := len(edges)
	// A negative id reads as >= 2^31 through uint32, so the maximum
	// that sizes the keys also detects one.
	var top atomic.Uint32
	core.ForBlocks(w, 0, m, 0, func(lo, hi int) {
		var mx uint32
		for _, e := range edges[lo:hi] {
			mx = max(mx, uint32(e.From), uint32(e.To))
		}
		core.WriteMax32(&top, mx)
	})
	if top.Load() > math.MaxInt32 {
		for i, e := range edges {
			if e.From < 0 || e.To < 0 {
				panic(fmt.Sprintf("graph: edge %d (%d -> %d) has a negative endpoint", i, e.From, e.To))
			}
		}
	}
	vb := uint(radix.BitsFor(uint64(top.Load())))

	keys := make([]uint64, 2*m)
	fwd, rev := keys[:m], keys[m:]
	core.ForBlocks(w, 0, m, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			from, to := uint64(edges[i].From), uint64(edges[i].To)
			fwd[i] = from<<vb | to
			rev[i] = to<<vb | from
		}
	})
	var scratch radix.Scratch
	radix.SortPairsScratch(w, keys, nil, int(2*vb), &scratch)

	// Count, scan, write, a block of symBlock sorted keys per task.
	nb := (len(keys) + symBlock - 1) / symBlock
	starts := make([]int, nb)
	core.ForBlocks(w, 0, nb, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			starts[b] = symPackBlock(keys, b, vb, nil)
		}
	})
	out := make([]Edge, core.ScanExclusive(w, starts))
	core.ForBlocks(w, 0, nb, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			symPackBlock(keys, b, vb, out[starts[b]:]) //lint:scared pack cursor: block b fills [starts[b], starts[b]+its kept count), its own slots by the exclusive scan of the counts the same function returned
		}
	})
	return out
}

// symBlock is the number of sorted keys one task of Symmetrize's count
// and write passes owns.
const symBlock = 1 << 14

// symPackBlock walks block b of the sorted keys and returns how many
// survive: a key is dropped when it is a self-loop or repeats its
// predecessor (block 0's first key has none). With out non-nil the
// survivors are unpacked into out[0:count].
func symPackBlock(keys []uint64, b int, vb uint, out []Edge) int {
	lo := b * symBlock
	prev := ^keys[lo]
	if lo > 0 {
		prev = keys[lo-1]
	}
	low := uint64(1)<<vb - 1
	c := 0
	for _, k := range keys[lo:min(lo+symBlock, len(keys))] {
		if from, to := k>>vb, k&low; k != prev && from != to {
			if out != nil {
				out[c] = Edge{From: int32(from), To: int32(to)}
			}
			c++
		}
		prev = k
	}
	return c
}

// Stats summarizes a generated input for the Table 2 reproduction.
type Stats struct {
	Name      string
	V         int32
	E         int32 // directed edges stored
	AvgDegree float64
	MaxDegree int32
}

// ComputeStats derives Table 2 statistics from a graph.
func ComputeStats(w *core.Worker, name string, g *Graph) Stats {
	maxDeg := core.MapReduce(w, int(g.N), int32(0),
		func(v int) int32 { return g.Degree(int32(v)) },
		func(a, b int32) int32 {
			if a > b {
				return a
			}
			return b
		})
	return Stats{
		Name:      name,
		V:         g.N,
		E:         g.M(),
		AvgDegree: float64(g.M()) / float64(g.N),
		MaxDegree: maxDeg,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%-6s |V|=%-9d |E|=%-10d |E|/|V|=%.1f maxdeg=%d",
		s.Name, s.V, s.E, s.AvgDegree, s.MaxDegree)
}

// RMAT generates an R-MAT edge list with 2^scale vertices and about
// edgeFactor * 2^scale edges, using the standard Graph500 partition
// probabilities (a=0.57, b=0.19, c=0.19). Self-loops are filtered.
func RMAT(w *core.Worker, scale, edgeFactor int, seed uint64) []Edge {
	n := 1 << scale
	m := edgeFactor * n
	r := seqgen.NewRng(seed)
	edges := make([]Edge, m)
	core.ForEachIdx(w, edges, 0, func(i int, e *Edge) {
		var u, v int
		draw := uint64(i) * uint64(scale+1)
		for {
			u, v = 0, 0
			for level := 0; level < scale; level++ {
				p := r.Float64(draw + uint64(level))
				switch {
				case p < 0.57: // a: top-left
				case p < 0.76: // b: top-right
					v |= 1 << level
				case p < 0.95: // c: bottom-left
					u |= 1 << level
				default: // d: bottom-right
					u |= 1 << level
					v |= 1 << level
				}
			}
			if u != v {
				break
			}
			draw += uint64(scale) + 1000003
		}
		*e = Edge{From: int32(u), To: int32(v)}
	})
	return edges
}

// PowerLaw generates a link-graph-like edge list over n vertices with
// about n*avgDeg edges whose in-degrees follow a heavy-tailed (Zipf-ish)
// distribution, standing in for the Hyperlink2012 input. Sources are
// uniform; destinations are drawn by inverse-power sampling.
func PowerLaw(w *core.Worker, n, avgDeg int, seed uint64) []Edge {
	m := n * avgDeg
	r := seqgen.NewRng(seed)
	edges := make([]Edge, m)
	core.ForEachIdx(w, edges, 0, func(i int, e *Edge) {
		draw := uint64(i) * 3
		u := int32(r.Intn(draw, n))
		uu := r.Float64(draw + 1)
		// Zipf-like: v ~ floor(n * u^3) concentrates edges on low ids.
		v := int32(float64(n) * uu * uu * uu)
		if v >= int32(n) {
			v = int32(n) - 1
		}
		if v == u {
			v = int32(r.Intn(draw+2, n))
			if v == u {
				v = (u + 1) % int32(n)
			}
		}
		*e = Edge{From: u, To: v}
	})
	return edges
}

// RoadGrid generates a road-network-like edge list: a w x h grid where
// each vertex links to its right and down neighbors, plus a sprinkle of
// random "shortcut" edges (highways). The directed |E|/|V| ratio is
// about 2.4, matching Table 2's road input.
func RoadGrid(wk *core.Worker, width, height int, seed uint64) []Edge {
	n := width * height
	r := seqgen.NewRng(seed)
	var edges []Edge
	// Grid edges: right and down, ~2 per vertex.
	est := 2*n + n/2
	edges = make([]Edge, 0, est)
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			v := int32(y*width + x)
			if x+1 < width {
				edges = append(edges, Edge{From: v, To: v + 1})
			}
			if y+1 < height {
				edges = append(edges, Edge{From: v, To: v + int32(width)})
			}
		}
	}
	// Shortcuts: ~0.4 per vertex to nearby vertices.
	shortcuts := (2 * n) / 5
	for i := 0; i < shortcuts; i++ {
		u := int32(r.Intn(uint64(2*i), n))
		// Jump a bounded distance to preserve road-like diameter.
		jump := r.Intn(uint64(2*i+1), 10*width) - 5*width
		v := u + int32(jump)
		if v < 0 || v >= int32(n) || v == u {
			continue
		}
		edges = append(edges, Edge{From: u, To: v})
	}
	_ = wk
	return edges
}

// AddWeights attaches deterministic pseudo-random weights in [1, maxW]
// to an edge list.
func AddWeights(w *core.Worker, edges []Edge, maxW uint32, seed uint64) []WEdge {
	r := seqgen.NewRng(seed)
	out := make([]WEdge, len(edges))
	core.ForEachIdx(w, out, 0, func(i int, we *WEdge) {
		e := edges[i]
		// Weight depends on the endpoints, not the list position, so the
		// reverse edge (v,u) gets the same weight — keeping symmetrized
		// graphs consistent for MSF/SSSP.
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		h := seqgen.Hash64(uint64(a)<<32 | uint64(uint32(b)))
		*we = WEdge{From: e.From, To: e.To, W: uint32(r.U64(h)%uint64(maxW)) + 1}
	})
	return out
}
