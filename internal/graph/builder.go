package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arena"
	"repro/internal/core"
)

// Builder is a reusable CSR construction pipeline: a stable blocked
// counting sort of the edge list into adjacency slots, one call of the
// library's counting-sort engine (core.CountSort) with csrSort as its
// body. The engine cuts the edge range into fixed blocks, counts each
// block's keys into its own row of a block-major count matrix, scans it
// key-major into write cursors — the row offsets fall out as its starts
// — and the body moves each block's edges through its own cursors:
// SngInd with independence guaranteed by the scan, the shape
// internal/radix uses. Every row therefore holds its edges in input
// order, the same at every worker count, and no step is atomic.
//
// Before them one range-bodied pass validates the endpoints
// (validateEdges), and the Sorted variants canonicalize every row after
// them: slices.Sort for plain rows, sortRowW for weighted ones.
//
// The output buffers live in the Builder and are grown with
// core.EnsureLen. The engine's box comes from the calling worker's box
// stack and its count matrix from the worker's arena, so repeated
// builds of same-shaped graphs allocate the validation pass's closures
// only: TestKernelsSteadyStateAllocs pins the count (row BuildCSR). A
// Build invalidates the Graph returned by the previous Build on the
// same Builder.
type Builder struct {
	g   Graph
	wg  WGraph
	cg  CGraph  // compressed form (Compress)
	cwg CWGraph // weighted compressed form (CompressW)
	ctg CGraph  // compressed transpose, its own stream (CompressTranspose)
}

// edgeLimit bounds the edge count a Builder accepts: CSR offsets are
// int32, so one more edge than MaxInt32 would overflow the scan.
// Injectable (mirroring core's packIndexLimit) so the guard is testable
// without allocating a 2^31-edge list.
var edgeLimit = int64(math.MaxInt32)

// validateEdges panics with a message naming the first edge whose
// endpoint falls outside [0, n) — instead of an index-out-of-range
// deep inside the counting-sort scatter — and enforces edgeLimit.
// firstBad scans edges [lo, hi) in a plain loop and returns the index
// of the first such edge, or -1; ends returns edge i's endpoints for
// the message.
func validateEdges(w *core.Worker, n int32, m int, firstBad func(lo, hi int) int, ends func(i int) (int32, int32)) {
	if int64(m) > edgeLimit {
		panic(fmt.Sprintf("graph: edge list has %d edges, exceeding the int32 CSR offset limit %d; offsets would overflow", m, edgeLimit))
	}
	bad := uint64(math.MaxUint64)
	core.ForBlocks(w, 0, m, 0, func(lo, hi int) {
		if i := firstBad(lo, hi); i >= 0 {
			core.WriteMinU64(&bad, uint64(i))
		}
	})
	if bad != math.MaxUint64 {
		from, to := ends(int(bad))
		panic(fmt.Sprintf("graph: edge %d (%d -> %d) has an endpoint outside [0, %d)", bad, from, to, n))
	}
}

// Edge sources of csrSort.
const (
	fromEdges  uint8 = iota // Build: edge i is edges[i]
	fromWEdges              // BuildW: edge i is wedges[i], its weight carried along
	fromRows                // Transpose: entry i of row u of a CSR is the edge adjIn[i] -> u
)

// csrSort is the caller's side of the counting sort that builds every
// CSR here (core.CountSort): edge i is keyed by its source vertex (by
// its target for a transpose), and the place half writes its other
// endpoint, and its weight, to the slot the block's cursor hands out.
type csrSort struct {
	edges         []Edge
	wedges        []WEdge
	offsIn, adjIn []int32
	adj           []int32
	wgt           []uint32
	src           uint8
}

func (s *csrSort) CountRange(c core.Counter, lo, hi int) {
	switch s.src {
	case fromEdges:
		for _, e := range s.edges[lo:hi] {
			c.Add(int(e.From))
		}
	case fromWEdges:
		for _, e := range s.wedges[lo:hi] {
			c.Add(int(e.From))
		}
	default:
		for _, k := range s.adjIn[lo:hi] {
			c.Add(int(k))
		}
	}
}

func (s *csrSort) PlaceRange(c core.Cursor, lo, hi int) {
	adj, wgt, offsIn, adjIn := s.adj, s.wgt, s.offsIn, s.adjIn
	switch s.src {
	case fromEdges:
		for _, e := range s.edges[lo:hi] {
			adj[c.Next(int(e.From))] = e.To
		}
	case fromWEdges:
		for _, e := range s.wedges[lo:hi] {
			at := c.Next(int(e.From))
			adj[at] = e.To
			wgt[at] = e.W
		}
	default:
		// The source row of entry lo: the last u with offsIn[u] <= lo.
		r, found := slices.BinarySearch(offsIn, int32(lo))
		if !found {
			r--
		}
		u := int32(r)
		for i := lo; i < hi; i++ {
			for offsIn[u+1] <= int32(i) {
				u++
			}
			adj[c.Next(int(adjIn[i]))] = u
		}
	}
}

// sortInto runs the counting sort of s's m edges over n vertices into
// b.g.Offs and b.g.Adj, and into b.wg.Wgt for weighted edges.
func (b *Builder) sortInto(w *core.Worker, n int32, m int, s csrSort) {
	b.g.N = n
	b.g.Offs = core.EnsureLen(b.g.Offs, int(n)+1)
	b.g.Adj = core.EnsureLen(b.g.Adj, m)
	s.adj = b.g.Adj
	if s.src == fromWEdges {
		b.wg.Wgt = core.EnsureLen(b.wg.Wgt, m)
		s.wgt = b.wg.Wgt
	}
	core.CountDynamic(core.SngInd)
	core.CountSort(w, m, int(n), b.g.Offs, s)
}

// Build constructs a CSR graph from a directed edge list into the
// Builder's reusable buffers. Each row lists its edges' targets in
// input order. The returned *Graph aliases those buffers and is valid
// until the next Build/BuildW on this Builder. Endpoints are validated
// up front; an out-of-range edge panics naming it.
func (b *Builder) Build(w *core.Worker, n int32, edges []Edge) *Graph {
	validateEdges(w, n, len(edges), func(lo, hi int) int {
		for i, e := range edges[lo:hi] {
			if uint32(e.From) >= uint32(n) || uint32(e.To) >= uint32(n) {
				return lo + i
			}
		}
		return -1
	}, func(i int) (int32, int32) { return edges[i].From, edges[i].To })
	b.sortInto(w, n, len(edges), csrSort{src: fromEdges, edges: edges})
	return &b.g
}

// BuildW constructs a weighted CSR graph from a weighted edge list into
// the Builder's reusable buffers, each row in input order with its
// weights alongside. The returned *WGraph aliases those buffers and is
// valid until the next Build/BuildW on this Builder.
func (b *Builder) BuildW(w *core.Worker, n int32, edges []WEdge) *WGraph {
	validateEdges(w, n, len(edges), func(lo, hi int) int {
		for i, e := range edges[lo:hi] {
			if uint32(e.From) >= uint32(n) || uint32(e.To) >= uint32(n) {
				return lo + i
			}
		}
		return -1
	}, func(i int) (int32, int32) { return edges[i].From, edges[i].To })
	b.sortInto(w, n, len(edges), csrSort{src: fromWEdges, wedges: edges})
	b.wg.Graph = b.g
	return &b.wg
}

// BuildSorted is Build followed by SortAdjacency: a Build keeps each
// row in input order, and sorting every row canonicalizes the layout
// whatever that order was; the rows of a sorted edge list arrive
// sorted, the sort's cheap case. Sorted rows are the precondition of
// the Compress encoder (gaps must be non-negative) and of
// intersection-style kernels (triangle counting).
func (b *Builder) BuildSorted(w *core.Worker, n int32, edges []Edge) *Graph {
	g := b.Build(w, n, edges)
	SortAdjacency(w, g)
	return g
}

// BuildWSorted is BuildW with every row sorted by (neighbor id, weight),
// the weights permuted alongside.
func (b *Builder) BuildWSorted(w *core.Worker, n int32, edges []WEdge) *WGraph {
	wg := b.BuildW(w, n, edges)
	SortAdjacencyW(w, wg)
	return wg
}

// SortAdjacency sorts every neighbor row of g in place, ascending. Rows
// are disjoint CSR segments, so the per-vertex tasks write disjoint
// slices.
func SortAdjacency(w *core.Worker, g *Graph) {
	adj, offs := g.Adj, g.Offs
	core.ForRange(w, 0, int(g.N), 0, func(v int) {
		slices.Sort(adj[offs[v]:offs[v+1]]) //lint:scared per-row sort: row segments [offs[v], offs[v+1]) are disjoint per task v
	})
}

// SortAdjacencyW sorts every neighbor row of wg by (neighbor id,
// weight) with the weight entries co-permuted, keeping Wgt[i] attached
// to Adj[i].
func SortAdjacencyW(w *core.Worker, wg *WGraph) {
	adj, wgt, offs := wg.Adj, wg.Wgt, wg.Offs
	rows := func(ww *core.Worker, lo, hi int) {
		a := arena.Of(ww)
		for v := lo; v < hi; v++ {
			sortRowW(a, adj[offs[v]:offs[v+1]], wgt[offs[v]:offs[v+1]]) //lint:scared per-row sort: row segments [offs[v], offs[v+1]) are disjoint per vertex v, and v lies in this invocation's own [lo, hi)
		}
	}
	core.CountDynamic(core.Stride)
	w.For(0, int(wg.N), 0, rows)
}

// rowInsertionMax is the longest row sortRowW sorts by insertion.
const rowInsertionMax = 24

// rowKey is entry i of a (neighbor, weight) row as one integer that
// orders by neighbor id, then weight. Neighbor ids are non-negative.
func rowKey(adj []int32, wgt []uint32, i int) uint64 {
	return uint64(uint32(adj[i]))<<32 | uint64(wgt[i])
}

// sortRowW co-sorts one (neighbor, weight) row by rowKey. A BuildW of
// an edge list sorted by (From, To, W) leaves every row sorted, so such
// rows return from the first scan; short rows are sorted by insertion,
// and longer ones as packed keys in scratch checked out of a (the
// executing worker's arena).
func sortRowW(a *arena.Arena, adj []int32, wgt []uint32) {
	n := len(adj)
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = rowKey(adj, wgt, i-1) <= rowKey(adj, wgt, i)
	}
	if sorted {
		return
	}
	if n <= rowInsertionMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && rowKey(adj, wgt, j-1) > rowKey(adj, wgt, j); j-- {
				adj[j-1], adj[j] = adj[j], adj[j-1]
				wgt[j-1], wgt[j] = wgt[j], wgt[j-1]
			}
		}
		return
	}
	m := a.Mark()
	keys := arena.AllocUninit[uint64](a, n)
	for i := range keys {
		keys[i] = rowKey(adj, wgt, i)
	}
	slices.Sort(keys)
	for i, k := range keys {
		adj[i], wgt[i] = int32(k>>32), uint32(k)
	}
	a.Release(m)
}

// Transpose builds the reverse graph of g (every edge u->v becomes
// v->u) with the same counting sort, into this Builder's buffers. The
// sort walks g's entries in order, so sources arrive ascending and
// every row of the transpose comes out sorted. Bottom-up BFS steps scan
// it to find any parent among a vertex's in-neighbors. For symmetric
// graphs the transpose equals the graph; builders of undirected inputs
// may share one CSR for both directions instead. g must not alias this
// Builder's own buffers — transpose with a second Builder.
func (b *Builder) Transpose(w *core.Worker, g *Graph) *Graph {
	b.sortInto(w, g.N, int(g.M()), csrSort{src: fromRows, offsIn: g.Offs, adjIn: g.Adj})
	return &b.g
}
