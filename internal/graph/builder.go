package graph

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
)

// Builder is a reusable degree-aware CSR construction pipeline: a
// parallel counting sort of the edge list into adjacency slots. The
// three phases exercise the suite's patterns — an AW degree count
// (atomic increments racing per destination counter), a Block-disjoint
// exclusive scan of the offsets (core.ScanExclusiveInto), and an AW
// cursor scatter of edges into their slots.
//
// Before them one range-bodied pass validates the endpoints
// (validateEdges), and the Sorted variants canonicalize every row after
// them: slices.Sort for plain rows, sortRowW for weighted ones.
//
// All intermediate and output buffers live in the Builder and are
// grown with core.EnsureLen, so repeated builds of same-shaped graphs
// allocate no buffer, only a fixed handful of loop closures:
// TestKernelsSteadyStateAllocs pins the count (row BuildCSR). A Build
// invalidates the Graph returned by the previous Build on the same
// Builder.
type Builder struct {
	degs []int32 // per-vertex out-degree, then scanned into offs
	cur  []int32 // per-vertex fill cursor during the scatter
	g    Graph
	wg   WGraph
	cg   CGraph  // compressed form (Compress / BuildC)
	cwg  CWGraph // weighted compressed form (CompressW / BuildWC)
	ctg  CGraph  // compressed transpose, its own stream (CompressTranspose)
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

// countAndScan runs the degree count over from-vertices and the offset
// scan, leaving b.cur[v] = b.g.Offs[v] ready for the scatter, and
// returns the edge total.
func (b *Builder) countAndScan(w *core.Worker, n int32, deg func(i int) int32, m int) int32 {
	b.degs = core.EnsureLen(b.degs, int(n))
	core.Fill(w, b.degs, 0)
	core.ForRange(w, 0, m, 0, func(i int) {
		atomic.AddInt32(&b.degs[deg(i)], 1)
	})
	b.g.Offs = core.EnsureLen(b.g.Offs, int(n)+1)
	total := core.ScanExclusiveInto(w, b.g.Offs[:n], b.degs[:n])
	b.g.Offs[n] = total
	b.cur = core.EnsureLen(b.cur, int(n))
	offs := b.g.Offs
	core.ForRange(w, 0, int(n), 0, func(v int) {
		b.cur[v] = offs[v]
	})
	return total
}

// Build constructs a CSR graph from a directed edge list into the
// Builder's reusable buffers. The returned *Graph aliases those buffers
// and is valid until the next Build/BuildW on this Builder. Endpoints
// are validated up front; an out-of-range edge panics naming it.
func (b *Builder) Build(w *core.Worker, n int32, edges []Edge) *Graph {
	validateEdges(w, n, len(edges), func(lo, hi int) int {
		for i, e := range edges[lo:hi] {
			if uint32(e.From) >= uint32(n) || uint32(e.To) >= uint32(n) {
				return lo + i
			}
		}
		return -1
	}, func(i int) (int32, int32) { return edges[i].From, edges[i].To })
	total := b.countAndScan(w, n, func(i int) int32 { return edges[i].From }, len(edges))
	b.g.N = n
	b.g.Adj = core.EnsureLen(b.g.Adj, int(total))
	adj, cur := b.g.Adj, b.cur
	core.ForRange(w, 0, len(edges), 0, func(i int) {
		e := edges[i]
		slot := atomic.AddInt32(&cur[e.From], 1) - 1
		adj[slot] = e.To //lint:scared counting-sort scatter: cur[v] starts at the exclusive-scan offset, so slots are unique within v's segment
	})
	return &b.g
}

// BuildW constructs a weighted CSR graph from a weighted edge list into
// the Builder's reusable buffers. The returned *WGraph aliases those
// buffers and is valid until the next Build/BuildW on this Builder.
func (b *Builder) BuildW(w *core.Worker, n int32, edges []WEdge) *WGraph {
	validateEdges(w, n, len(edges), func(lo, hi int) int {
		for i, e := range edges[lo:hi] {
			if uint32(e.From) >= uint32(n) || uint32(e.To) >= uint32(n) {
				return lo + i
			}
		}
		return -1
	}, func(i int) (int32, int32) { return edges[i].From, edges[i].To })
	total := b.countAndScan(w, n, func(i int) int32 { return edges[i].From }, len(edges))
	b.g.N = n
	b.g.Adj = core.EnsureLen(b.g.Adj, int(total))
	b.wg.Wgt = core.EnsureLen(b.wg.Wgt, int(total))
	adj, wgt, cur := b.g.Adj, b.wg.Wgt, b.cur
	core.ForRange(w, 0, len(edges), 0, func(i int) {
		e := edges[i]
		slot := atomic.AddInt32(&cur[e.From], 1) - 1
		adj[slot] = e.To //lint:scared counting-sort scatter: cur[v] starts at the exclusive-scan offset, so slots are unique within v's segment
		wgt[slot] = e.W
	})
	b.wg.Graph = b.g
	return &b.wg
}

// BuildSorted is Build followed by SortAdjacency: the counting-sort
// scatter's slot order depends on atomic-increment interleaving, so a
// plain Build is deterministic only up to within-row permutation;
// sorting every row canonicalizes the layout. Sorted rows are also the
// precondition of the Compress encoder (gaps must be non-negative) and
// of intersection-style kernels (triangle counting, ROADMAP).
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

// sortRowW co-sorts one (neighbor, weight) row by rowKey. A Build of a
// sorted edge list leaves a row out of order only where the scatter's
// atomic cursors interleaved, so most rows return from the first scan;
// short rows are sorted by insertion, and longer ones as packed keys in
// scratch checked out of a (the executing worker's arena).
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
// v->u) with the same counting-sort pipeline, into this Builder's
// buffers. Bottom-up BFS steps scan it to find any parent among a
// vertex's in-neighbors. For symmetric graphs the transpose equals the
// graph; builders of undirected inputs may share one CSR for both
// directions instead. g must not alias this Builder's own buffers —
// transpose with a second Builder.
func (b *Builder) Transpose(w *core.Worker, g *Graph) *Graph {
	adjIn := g.Adj
	b.countAndScan(w, g.N, func(i int) int32 { return adjIn[i] }, int(g.M()))
	b.g.N = g.N
	b.g.Adj = core.EnsureLen(b.g.Adj, int(g.M()))
	adj, cur := b.g.Adj, b.cur
	offsIn := g.Offs
	core.ForRange(w, 0, int(g.N), 0, func(u int) {
		for _, v := range adjIn[offsIn[u]:offsIn[u+1]] {
			slot := atomic.AddInt32(&cur[v], 1) - 1
			adj[slot] = int32(u) //lint:scared counting-sort scatter: cur[v] starts at the exclusive-scan offset, so slots are unique within v's segment
		}
	})
	return &b.g
}
