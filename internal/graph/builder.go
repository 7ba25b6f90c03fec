package graph

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arena"
	"repro/internal/core"
)

// Builder is a reusable CSR construction pipeline: a stable blocked
// counting sort of the edge list into adjacency slots (csrSort). The
// edge range is cut into fixed blocks; a Block pass counts each block's
// keys into its own column of a vertex-major count matrix, one
// exclusive scan (core.ScanExclusive) turns the matrix into write
// cursors, and a scatter moves each block's edges through its own
// cursors — SngInd with independence guaranteed by the scan, the shape
// internal/radix uses. Every row therefore holds its edges in input
// order, the same at every worker count, and no step is atomic.
//
// Before them one range-bodied pass validates the endpoints
// (validateEdges), and the Sorted variants canonicalize every row after
// them: slices.Sort for plain rows, sortRowW for weighted ones.
//
// The output buffers live in the Builder and are grown with
// core.EnsureLen. The sort's loop body comes from the calling worker's
// box stack, and the count matrix is one allocation that is garbage
// once the build returns, so nothing sort-sized outlives it. Repeated
// builds of same-shaped graphs therefore allocate the matrix and the
// validation pass's closures only: TestKernelsSteadyStateAllocs pins
// the count (row BuildCSR). A Build invalidates the Graph returned by
// the previous Build on the same Builder.
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

// csrBlockMin is the fewest edges one block of csrSort covers. A block
// covers max(csrBlockMin, 4n) edges, so the n × blocks count matrix
// stays near a quarter of the edge count and the scan over it is small
// beside the scatter. The rule depends on the edge and vertex counts
// only, never on the worker count, so the blocks are the same on every
// pool.
const csrBlockMin = 1 << 16

// Edge sources of csrSort.
const (
	fromEdges  uint8 = iota // Build: edge i is edges[i]
	fromWEdges              // BuildW: edge i is wedges[i], its weight carried along
	fromRows                // Transpose: entry i of row u of a CSR is the edge adjIn[i] -> u
)

// Phases of csrSort.
const (
	csrCount   uint8 = iota // over blocks: count each block's keys into its column
	csrOffs                 // over vertices: Offs[v] is block 0's cursor of v
	csrScatter              // over blocks: move each block's edges through its cursors
)

// csrSort is the loop body of the stable blocked counting sort that
// builds every CSR here: edges [0, m) are keyed by source vertex (by
// target for a transpose) and cut into nb blocks of bs edges. counts is
// vertex-major, counts[v*nb+b] the number of block b's edges keyed v,
// so one exclusive scan over it yields each (vertex, block) write
// cursor, and block b owns the segment of row v between its cursor and
// block b+1's.
type csrSort struct {
	edges         []Edge
	wedges        []WEdge
	offsIn, adjIn []int32
	counts        []int32
	offs, adj     []int32
	wgt           []uint32
	m, bs, nb     int
	src, phase    uint8
}

func (s *csrSort) RunRange(_ *core.Worker, lo, hi int) {
	counts, nb := s.counts, s.nb
	if s.phase == csrOffs {
		offs := s.offs
		for v := lo; v < hi; v++ {
			offs[v] = counts[v*nb]
		}
		return
	}
	edges, wedges, offsIn, adjIn, adj, wgt, src := s.edges, s.wedges, s.offsIn, s.adjIn, s.adj, s.wgt, s.src
	scatter := s.phase == csrScatter
	for b := lo; b < hi; b++ {
		blo, bhi := b*s.bs, min((b+1)*s.bs, s.m)
		u := int32(0)
		if src == fromRows && scatter {
			// The scatter's source row of entry blo: the last u with
			// offsIn[u] <= blo; counting needs only the key adjIn[i].
			r, found := slices.BinarySearch(offsIn, int32(blo))
			if !found {
				r--
			}
			u = int32(r)
		}
		for i := blo; i < bhi; i++ {
			var k, v int32
			switch src {
			case fromEdges:
				k, v = edges[i].From, edges[i].To
			case fromWEdges:
				k, v = wedges[i].From, wedges[i].To
			default:
				for scatter && offsIn[u+1] <= int32(i) {
					u++
				}
				k, v = adjIn[i], u
			}
			c := int(k)*nb + b
			at := counts[c]
			counts[c] = at + 1 //lint:scared vertex-major matrix: column b is block b's alone, and b lies in this invocation's own [lo, hi)
			if scatter {
				adj[at] = v //lint:scared counting-sort scatter: counts[k*nb+b] starts at the exclusive scan of the matrix, so block b owns a segment of row k no other block's cursor enters
				if wgt != nil {
					wgt[at] = wedges[i].W //lint:scared same slot as adj[at] above: block b's own segment of row k
				}
			}
		}
	}
}

// run executes one phase over [0, hi), hi blocks or vertices.
func (s *csrSort) run(w *core.Worker, phase uint8, hi, grain int) {
	s.phase = phase
	if w == nil || hi <= 1 {
		s.RunRange(nil, 0, hi)
		return
	}
	w.ForBody(0, hi, grain, s)
}

// sortInto runs the counting sort of in's m edges over n vertices into
// b.g.Offs and b.g.Adj, and into b.wg.Wgt for weighted edges. The loop
// body is checked out of w's box stack and returned before sortInto
// is.
func (b *Builder) sortInto(w *core.Worker, n int32, in csrSort) {
	bs := max(csrBlockMin, 4*int(n))
	nb := max((in.m+bs-1)/bs, 1)
	s := new(csrSort)
	if w != nil {
		s = arena.AcquireBox[csrSort](w)
	}
	*s = in
	// The matrix is made, not checked out of w's arena: an arena keeps
	// every slab it grows for the life of its pool, so m/4 + n counters
	// would stay resident beside the graphs they built.
	s.counts = make([]int32, int(n)*nb)
	s.bs, s.nb = bs, nb
	core.CountDynamic(core.Block)
	s.run(w, csrCount, nb, 1)
	total := core.ScanExclusive(w, s.counts)
	b.g.N = n
	b.g.Offs = core.EnsureLen(b.g.Offs, int(n)+1)
	b.g.Offs[n] = total
	b.g.Adj = core.EnsureLen(b.g.Adj, int(total))
	s.offs, s.adj = b.g.Offs, b.g.Adj
	if in.src == fromWEdges {
		b.wg.Wgt = core.EnsureLen(b.wg.Wgt, int(total))
		s.wgt = b.wg.Wgt
	}
	core.CountDynamic(core.Stride)
	s.run(w, csrOffs, int(n), 0)
	core.CountDynamic(core.SngInd)
	s.run(w, csrScatter, nb, 1)
	*s = csrSort{}
	if w != nil {
		arena.ReleaseBox(w, s)
	}
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
	b.sortInto(w, n, csrSort{src: fromEdges, edges: edges, m: len(edges)})
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
	b.sortInto(w, n, csrSort{src: fromWEdges, wedges: edges, m: len(edges)})
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
	b.sortInto(w, g.N, csrSort{src: fromRows, offsIn: g.Offs, adjIn: g.Adj, m: int(g.M())})
	return &b.g
}
