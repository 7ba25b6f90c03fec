package bench

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/graph"
)

// tc — triangle counting over the degree-ordered orientation. Setup
// ranks vertices by (degree, id) and keeps each undirected edge
// directed from lower to higher rank, so every row of the resulting DAG
// has O(sqrt(E)) out-degree on the standard inputs and each triangle is
// stored exactly once (at its lowest-rank corner). The kernel marks one
// row in a chunk-private bitmap and intersects each out-neighbor's row
// against it with Adjacency.CountIn — the set-intersection dual of the
// frontier-probe FindFirstIn: on the compressed shards it counts
// straight off the group-decode loop without materializing the neighbor
// slice. Chunk subtotals land in one fetch-add, the kernel's scared AW
// site; the total is an integer, so any execution order produces the
// oracle's count.
//
// Hub matrix. A row is streamed once per in-edge, and on a skewed graph
// a few highly ranked rows take most of those probes. The orientation
// runs up-rank, so the out-row of any of the H highest-ranked vertices
// (the hubs) holds hubs only: each run keeps those rows as an H x H
// bit-matrix, marks every source row's hub members in an H-bit vector
// next to the n-bit bitmap, and answers |N+(v) ∩ N+(u)| for a hub u
// with a popcount over the matrix row instead of streaming row(u)
// (docs/GRAPH.md "Hub matrix"). The fill checks that closure, so a DAG
// oriented some other way takes the all-CountIn path and still counts
// right.

type tcInstance[A graph.Adjacency] struct {
	dag    A // degree-ordered orientation, sorted rows
	hubs   tcHubs
	total  atomic.Int64 // chunk subtotals of the run in progress
	count  int64
	want   int64
	maxDeg int
}

// tcHubs is the hub set in compact form: a membership bitmap with a
// per-word rank prefix, so a vertex's matrix index is its rank among
// the hubs in vertex-id order and costs one popcount to find.
type tcHubs struct {
	list []int32  // matrix index -> vertex, ascending
	bits []uint64 // n-bit membership
	base []int32  // base[i] = hubs among vertices below 64*i
}

// index returns u's matrix index, if u is a hub.
func (h *tcHubs) index(u int32) (int, bool) {
	word, bit := h.bits[uint32(u)>>6], uint64(1)<<(uint32(u)&63)
	return int(h.base[uint32(u)>>6]) + bits.OnesCount64(word&(bit-1)), word&bit != 0
}

// tcHubCount derives H from the DAG's size alone: about 2*sqrt(E),
// rounded up to whole bitmap words and capped at n. The matrix is then
// H*H/8 = E/2 bytes, an eighth of the plain DAG, and H sits on the flat
// part of the measured sweep (BenchmarkGraphTCHubs, EXPERIMENTS.md).
func tcHubCount(n int, edges int64) int {
	h := (int(2*math.Sqrt(float64(edges))) + 63) &^ 63
	return min(h, n)
}

// newTCHubs picks the h highest-ranked vertices of dag under the
// ranking tcOrientEdges orients by: undirected degree (out + in), ties
// by id. Only the hub list leaves the sort scratch. saved is how many
// row probes per run the matrix takes over: a hub's row is streamed
// once per in-edge, and a matrix row answers in h/64 word operations
// what streaming answers in one probe per out-neighbor.
func newTCHubs[A graph.Adjacency](dag A, h int) (hubs tcHubs, saved int64) {
	n := int(dag.NumVertices())
	keys := make([]uint64, n) // degree<<32 | id sorts by (degree, id)
	buf := make([]int32, dag.MaxDegree())
	for v := range keys {
		row := dag.RowInto(int32(v), buf)
		keys[v] += uint64(len(row))<<32 | uint64(v)
		for _, u := range row {
			keys[u] += 1 << 32
		}
	}
	slices.Sort(keys)
	hubs = tcHubs{
		list: make([]int32, h),
		bits: make([]uint64, (n+63)/64),
		base: make([]int32, (n+63)/64),
	}
	hw := int64(h+63) / 64
	for i, k := range keys[n-h:] {
		v := int32(uint32(k))
		hubs.list[i] = v
		if out := int64(dag.Degree(v)); out > hw {
			saved += (int64(k>>32) - out) * (out - hw)
		}
	}
	slices.Sort(hubs.list)
	for _, v := range hubs.list {
		hubs.bits[v>>6] |= 1 << (uint32(v) & 63)
	}
	for i := 1; i < len(hubs.base); i++ {
		hubs.base[i] = hubs.base[i-1] + int32(bits.OnesCount64(hubs.bits[i-1]))
	}
	return hubs, saved
}

// newTC derives the hub set from the DAG, and keeps it only where it
// pays: with hubs every edge costs a hub test when its row is marked
// and another when it is counted, so the matrix must take over more
// than 2E probes. On a road grid or a link graph, whose long rows are
// not the highly ranked ones, it takes over none, and the instance runs
// the all-CountIn loop as if there were no hubs.
func newTC[A graph.Adjacency](dag A) *tcInstance[A] {
	t := &tcInstance[A]{dag: dag, maxDeg: int(dag.MaxDegree())}
	if hubs, saved := newTCHubs(dag, tcHubCount(int(dag.NumVertices()), dag.NumEdges())); saved > 2*dag.NumEdges() {
		t.hubs = hubs
	}
	return t
}

// newTCHubbed is newTC with the hub count given: the tests and the
// BenchmarkGraphTCHubs sweep compare the derived H with its neighbours.
func newTCHubbed[A graph.Adjacency](dag A, h int) *tcInstance[A] {
	t := &tcInstance[A]{dag: dag, maxDeg: int(dag.MaxDegree())}
	t.hubs, _ = newTCHubs(dag, h)
	return t
}

// fillHubRows writes matrix rows [lo, hi): row i gets one bit per
// out-neighbor of hub i that is itself a hub. Each row has one owner.
func (t *tcInstance[A]) fillHubRows(hm []uint64, lo, hi int, buf []int32) {
	hw := (len(t.hubs.list) + 63) / 64
	for i := lo; i < hi; i++ {
		mrow := hm[i*hw : (i+1)*hw]
		for _, u := range t.dag.RowInto(t.hubs.list[i], buf) {
			if x, ok := t.hubs.index(u); ok {
				mrow[x>>6] |= 1 << (uint(x) & 63)
			}
		}
	}
}

// hubsClosed reports whether every hub's whole out-row made it into the
// matrix: a neighbor that is not a hub set no bit, so its row's popcount
// falls short of its degree. Only then does a matrix row stand for the
// adjacency row it replaces.
func (t *tcInstance[A]) hubsClosed(hm []uint64) bool {
	hw := (len(t.hubs.list) + 63) / 64
	for i, v := range t.hubs.list {
		var marked int32
		for _, word := range hm[i*hw : (i+1)*hw] {
			marked += int32(bits.OnesCount64(word))
		}
		if marked != t.dag.Degree(v) {
			return false
		}
	}
	return true
}

// countRows is the mark-and-count over source rows [lo, hi). With a
// matrix, the hub members of a row also go into hv (indices kept in
// hx), and a hub neighbor's intersection is read off its matrix row:
// a popcount over the hub vector, or one bit test per hub member when
// the row has fewer of those than the vector has words. Without one
// (hm empty) every neighbor's row is streamed through CountIn.
func (t *tcInstance[A]) countRows(hm []uint64, lo, hi int, bm, hv []uint64, hx, buf []int32) int64 {
	hw := len(hv)
	var cnt int64
	for v := lo; v < hi; v++ {
		row := t.dag.RowInto(int32(v), buf)
		if len(row) < 2 {
			continue
		}
		if len(hm) == 0 {
			for _, u := range row {
				bm[uint32(u)>>6] |= 1 << (uint32(u) & 63)
			}
			for _, u := range row {
				cnt += t.dag.CountIn(u, bm)
			}
			for _, u := range row {
				bm[uint32(u)>>6] &^= 1 << (uint32(u) & 63)
			}
			continue
		}
		hx := hx[:0]
		for _, u := range row {
			bm[uint32(u)>>6] |= 1 << (uint32(u) & 63)
			if x, ok := t.hubs.index(u); ok {
				hv[x>>6] |= 1 << (uint(x) & 63)
				hx = append(hx, int32(x))
			}
		}
		next := 0 // hub members come up in hx order: both ascend by id
		for _, u := range row {
			if t.hubs.bits[uint32(u)>>6]>>(uint32(u)&63)&1 == 0 {
				cnt += t.dag.CountIn(u, bm)
				continue
			}
			x := int(hx[next])
			next++
			if int(t.dag.Degree(u)) <= min(len(hx), hw) {
				cnt += t.dag.CountIn(u, bm)
				continue
			}
			mrow := hm[x*hw : (x+1)*hw]
			if len(hx) < hw {
				for _, y := range hx {
					cnt += int64(mrow[y>>6] >> (uint32(y) & 63) & 1)
				}
			} else {
				for k, word := range mrow {
					cnt += int64(bits.OnesCount64(word & hv[k]))
				}
			}
		}
		for _, u := range row {
			bm[uint32(u)>>6] &^= 1 << (uint32(u) & 63)
		}
		for _, x := range hx {
			hv[x>>6] = 0
		}
	}
	return cnt
}

// tcPass is the loop body of both loops of a run in object form
// (sched.RangeBody on a per-worker box), so neither allocates: first
// the matrix fill over the hubs, then the count over all source rows.
type tcPass[A graph.Adjacency] struct {
	t     *tcInstance[A]
	hm    []uint64 // hub matrix: the fill writes it, the count reads it
	count bool
}

func (p *tcPass[A]) RunRange(w *core.Worker, lo, hi int) {
	t := p.t
	a := arena.Of(w)
	am := a.Mark()
	buf := arena.AllocUninit[int32](a, t.maxDeg)
	if !p.count {
		//lint:scared one owner per matrix row: fillHubRows writes hm[i*hw:(i+1)*hw] only, for i in its own [lo, hi); hubsClosed then vets every row, and TestTCOpenHubSetFallsBack runs a DAG whose hub set is not closed
		t.fillHubRows(p.hm, lo, hi, buf)
	} else {
		// zeroed chunk-private mark bitmap and hub vector
		//lint:scared bm transits through the Adjacency.CountIn dynamic call, which only reads it; the checkout is released at the end of this chunk body
		bm := arena.Alloc[uint64](a, (int(t.dag.NumVertices())+63)/64)
		hv := arena.Alloc[uint64](a, (len(t.hubs.list)+63)/64)
		hx := arena.AllocUninit[int32](a, t.maxDeg)
		t.total.Add(t.countRows(p.hm, lo, hi, bm, hv, hx, buf))
	}
	a.Release(am)
}

func (p *tcPass[A]) run(w *core.Worker, n, grain int) {
	if w == nil {
		p.RunRange(nil, 0, n)
	} else {
		w.ForBody(0, n, grain, p)
	}
}

func (t *tcInstance[A]) runLibrary(w *core.Worker) {
	n, h := int(t.dag.NumVertices()), len(t.hubs.list)
	a := arena.Of(w)
	am := a.Mark()
	p := arena.AcquireBox[tcPass[A]](w)
	p.t, p.count = t, false
	// zeroed hub matrix, one owner per row
	p.hm = arena.Alloc[uint64](a, h*((h+63)/64))
	p.run(w, h, 0)
	if !t.hubsClosed(p.hm) {
		p.hm = nil
	}
	// Coarse grain: each chunk zeroes a words-long arena bitmap once,
	// so chunks must amortize that over many rows.
	grain := n / 256
	if grain < 1024 {
		grain = 1024
	}
	t.total.Store(0)
	p.count = true
	p.run(w, n, grain)
	p.t, p.hm = nil, nil
	arena.ReleaseBox(w, p)
	a.Release(am)
	t.count = t.total.Load()
}

// runDirect is the hand-rolled baseline: the same hub matrix and
// mark-and-count over statically chunked goroutines with per-goroutine
// heap buffers.
func (t *tcInstance[A]) runDirect(nThreads int) {
	n, h := int(t.dag.NumVertices()), len(t.hubs.list)
	words, hw := (n+63)/64, (h+63)/64
	hm := make([]uint64, h*hw)
	directFor(nThreads, h, func(lo, hi int) {
		t.fillHubRows(hm, lo, hi, make([]int32, t.maxDeg))
	})
	if !t.hubsClosed(hm) {
		hm = nil
	}
	t.total.Store(0)
	directFor(nThreads, n, func(lo, hi int) {
		bm, hv := make([]uint64, words), make([]uint64, hw)
		hx, buf := make([]int32, t.maxDeg), make([]int32, t.maxDeg)
		t.total.Add(t.countRows(hm, lo, hi, bm, hv, hx, buf))
	})
	t.count = t.total.Load()
}

func (t *tcInstance[A]) verify() error {
	if t.count != t.want {
		return fmt.Errorf("tc: counted %d triangles, want %d", t.count, t.want)
	}
	return nil
}

func (t *tcInstance[A]) stat() int64 { return t.count }

// tcOrientEdges builds the degree-ordered orientation of a symmetric
// graph: vertices ranked by (degree, id), each undirected edge kept
// only in its lower-rank endpoint's row. Setup-time helper — allocates
// freely.
func tcOrientEdges(g *graph.Graph) ([]graph.Edge, int32) {
	n := g.NumVertices()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	edges := make([]graph.Edge, 0, g.NumEdges()/2)
	buf := make([]int32, g.MaxDegree())
	for v := int32(0); v < n; v++ {
		for _, u := range g.RowInto(v, buf) {
			if rank[v] < rank[u] {
				edges = append(edges, graph.Edge{From: v, To: u})
			}
		}
	}
	return edges, n
}

// tcOracle counts triangles sequentially with sorted two-pointer row
// intersection — a different intersection algorithm than the kernel's
// bitmap CountIn, so agreement checks the counting logic, not just the
// schedule.
func tcOracle[A graph.Adjacency](dag A) int64 {
	n := dag.NumVertices()
	rowV := make([]int32, dag.MaxDegree())
	bufV := make([]int32, dag.MaxDegree())
	bufU := make([]int32, dag.MaxDegree())
	var cnt int64
	for v := int32(0); v < n; v++ {
		row := append(rowV[:0], dag.RowInto(v, bufV)...)
		for _, u := range row {
			ru := dag.RowInto(u, bufU)
			i, j := 0, 0
			for i < len(row) && j < len(ru) {
				switch {
				case row[i] < ru[j]:
					i++
				case row[i] > ru[j]:
					j++
				default:
					cnt++
					i++
					j++
				}
			}
		}
	}
	return cnt
}

func init() {
	core.DeclareSite("tc", "orient: degree-ranked DAG rows read", core.RO)
	core.DeclareSite("tc", "mark: chunk-private neighbor bitmap set/clear", core.Block)
	core.DeclareSite("tc", "hubs: owner-row bit-matrix fill", core.Block)
	core.DeclareSite("tc", "count: chunk triangle-subtotal fetch-add", core.AW)

	Register(Spec{
		Name:   "tc",
		Long:   "triangle counting",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			g := graph.LoadUndirectedSorted(nil, input, scale, 0x7c1)
			edges, n := tcOrientEdges(g)
			var b graph.Builder
			dag := b.BuildSorted(nil, n, edges)
			t := newTC(dag)
			t.want = tcOracle(dag)
			return &Instance{
				RunLibrary: t.runLibrary,
				RunDirect:  t.runDirect,
				Verify:     t.verify,
				Stat:       t.stat,
			}
		},
	})
}
