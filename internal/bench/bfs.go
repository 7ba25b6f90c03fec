package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mq"
)

// bfs — breadth-first search. The library expression is a hybrid
// direction-optimizing traversal (Beamer's algorithm, docs/GRAPH.md):
// level-synchronous top-down steps claim frontier neighbors with
// WriteMin on the distance array (AW) until the frontier's edge mass
// dominates the unexplored remainder, then bottom-up steps scan the
// transpose from each unvisited vertex looking for any parent in a
// bitmap frontier — word-disjoint plain writes, Fearless Block — and
// the traversal switches back once the frontier thins out. The direct
// expression keeps the paper's MultiQueue formulation (Sec 6):
// long-running workers pop (level, vertex) tasks in relaxed priority
// order, relax neighbors, and push improvements — the dynamism adds no
// fear beyond what the AW accesses already impose.
//
// The instance is generic over graph.Adjacency, so the same traversal
// runs against the plain CSR (*graph.Graph) and the compressed CSR
// (*graph.CGraph, docs/GRAPH.md "Compressed CSR"). Compressed rows are
// decoded in-loop into per-worker arena scratch — no materialized
// neighbor slices — and the bottom-up probe goes through FindFirstIn,
// which a compressed representation serves with an incremental decode
// that stops at the first frontier hit.

type bfsInstance[A graph.Adjacency] struct {
	g    A
	tg   A // transpose: in-edges scanned by bottom-up steps
	src  int32
	dist []uint32 // atomic access during runs
	want []uint32

	parent []int32 // parent[v]: BFS-tree edge parent[v]->v (library runs)

	// Persistent frontier state, reused across runs (0-alloc steady
	// state): two sparse vertex lists and two packed bitmaps.
	fa, fb        []int32
	curBM, nextBM []uint64

	// Decode scratch: row holds one MaxDegree row for the sequential
	// paths; dscratch grows one row per MultiQueue slot on demand.
	maxDeg   int
	row      []int32
	dscratch [][]int32

	// Direction-switch thresholds (Beamer's alpha/beta). Injectable so
	// tests can force either direction; newBFS sets the defaults.
	alpha, beta int64

	td bfsTopDown[A] // the parallel top-down step's body, reused every level

	mqStats mq.Stats // counters from the last direct (MultiQueue) run
}

// bfsTopDown is a parallel top-down step in object form (sched.RangeBody)
// kept in the instance, so a level allocates nothing: it expands the
// frontier fr at depth nd into nxt and counts the next frontier's
// vertices and edges.
type bfsTopDown[A graph.Adjacency] struct {
	b       *bfsInstance[A]
	fr, nxt []int32
	nd      uint32
	cnt     atomic.Int32
	edges   atomic.Int64
}

// RunRange decodes rows into its worker's arena scratch — Mark/Release
// bracketed, so repeated levels reuse the same slab. The fields are read
// once: cnt and edges share their cache line, and every winner's
// fetch-add invalidates it.
func (t *bfsTopDown[A]) RunRange(w *core.Worker, lo, hi int) {
	b, nxt, nd := t.b, t.nxt, t.nd
	a := arena.Of(w)
	am := a.Mark()
	buf := arena.AllocUninit[int32](a, b.maxDeg)
	for _, v := range t.fr[lo:hi] {
		for _, u := range b.g.RowInto(v, buf) {
			if core.WriteMinU32(&b.dist[u], nd) {
				// Level-synchronous: exactly one claimer wins each
				// vertex, so the parent write has a single writer.
				b.parent[u] = v //lint:scared single writer: WriteMinU32 on dist[u] returns true for exactly one claimer of u, in the one level that lowers it from distInf
				//lint:scared frontier append: the atomic fetch-add hands each winner a unique slot
				nxt[t.cnt.Add(1)-1] = u
				t.edges.Add(int64(b.g.Degree(u)))
			}
		}
	}
	a.Release(am)
}

const distInf = ^uint32(0)

// Beamer's published constants: go bottom-up when the frontier's edges
// exceed 1/alpha of the unexplored edges, return top-down when the
// frontier shrinks below 1/beta of the vertices.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// bfsSerialCutoff: top-down steps whose frontier carries less edge mass
// than this are expanded sequentially — the step is exclusive, so the
// claim needs no atomics and no spawn. Sized so the serial step costs
// about as much as the parallel machinery it avoids; on high-diameter
// inputs (road) nearly every level is this thin.
const bfsSerialCutoff = 4096

func newBFS[A graph.Adjacency](g, tg A, src int32) *bfsInstance[A] {
	n := g.NumVertices()
	words := (int(n) + 63) / 64
	maxDeg := int(g.MaxDegree())
	b := &bfsInstance[A]{
		g: g, tg: tg, src: src,
		dist:   make([]uint32, n),
		parent: make([]int32, n),
		fa:     make([]int32, n),
		fb:     make([]int32, n),
		curBM:  make([]uint64, words),
		nextBM: make([]uint64, words),
		maxDeg: maxDeg,
		row:    make([]int32, maxDeg),
		alpha:  bfsAlpha,
		beta:   bfsBeta,
	}
	b.td.b = b
	b.reset()
	return b
}

func (b *bfsInstance[A]) reset() {
	for i := range b.dist {
		b.dist[i] = distInf
		b.parent[i] = -1
	}
}

// slotRows returns a decode row of maxDeg for each MultiQueue slot of a
// drive on n workers, indexed by the slot id a task gets. It grows
// *rows on first use, so later runs allocate nothing: a row per slot,
// not an arena checkout per task, keeps Mark/Release off the hot path.
func slotRows(rows *[][]int32, n, maxDeg int) [][]int32 {
	for len(*rows) < n {
		*rows = append(*rows, make([]int32, maxDeg))
	}
	return *rows
}

// bfsCnt carries a bottom-up step's (vertices, frontier edges) totals
// through MapReduce.
type bfsCnt struct{ verts, edges int64 }

// runHybrid is the direction-optimizing library expression.
func (b *bfsInstance[A]) runHybrid(w *core.Worker) {
	n := int(b.g.NumVertices())
	b.dist[b.src] = 0
	b.parent[b.src] = b.src
	b.fa[0] = b.src
	cur := b.fa[:1]
	spare := b.fb
	level := uint32(0)
	frontierVerts := int64(1)
	frontierEdges := int64(b.g.Degree(b.src))
	remEdges := b.g.NumEdges()
	bottomUp := false

	for frontierVerts > 0 {
		remEdges -= frontierEdges
		nd := level + 1

		// Enter bottom-up only when the frontier's edge mass dominates
		// the unexplored remainder AND the frontier is wide enough to
		// survive the exit condition — otherwise a high-diameter tail
		// (road) would thrash bitmap builds and packs every level.
		if !bottomUp && frontierEdges*b.alpha > remEdges && frontierVerts*b.beta >= int64(n) {
			// Dense enough: switch to bottom-up over a bitmap frontier.
			bottomUp = true
			core.Fill(w, b.curBM, 0)
			front := cur
			core.ForRange(w, 0, len(front), 0, func(i int) {
				core.SetBit(b.curBM, front[i])
			})
		}

		if bottomUp {
			cnt := b.bottomUpStep(w, nd)
			frontierVerts, frontierEdges = cnt.verts, cnt.edges
			b.curBM, b.nextBM = b.nextBM, b.curBM
			if frontierVerts > 0 && frontierVerts*b.beta < int64(n) {
				// Frontier thinned out: pack the bitmap back to a sparse
				// list and resume top-down.
				bottomUp = false
				bm := b.curBM
				cur = core.PackIndexInto(w, n, func(i int) bool {
					return core.TestBit(bm, int32(i))
				}, b.fa)
				spare = b.fb
			}
		} else if frontierVerts+frontierEdges <= bfsSerialCutoff {
			// Tiny frontier: expand sequentially. The step is exclusive
			// (no parallel tasks in flight), so plain claims suffice.
			out := spare[:0]
			var edges int64
			for _, v := range cur {
				for _, u := range b.g.RowInto(v, b.row) {
					if b.dist[u] == distInf {
						b.dist[u] = nd
						b.parent[u] = v
						out = append(out, u)
						edges += int64(b.g.Degree(u))
					}
				}
			}
			spare = cur[:cap(cur)]
			cur = out
			frontierVerts, frontierEdges = int64(len(out)), edges
		} else {
			td := &b.td
			td.fr, td.nxt, td.nd = cur, spare, nd
			td.cnt.Store(0)
			td.edges.Store(0)
			if w == nil {
				td.RunRange(nil, 0, len(cur))
			} else {
				w.ForBody(0, len(cur), 0, td)
			}
			spare = cur[:cap(cur)]
			cur = td.nxt[:td.cnt.Load()]
			frontierVerts, frontierEdges = int64(len(cur)), td.edges.Load()
		}
		level = nd
	}
}

// bottomUpStep scans the transpose from every unvisited vertex, looking
// for any in-neighbor in the current bitmap frontier. Each parallel
// task owns one 64-vertex bitmap word, so its writes to dist, parent,
// and nextBM are word-disjoint plain stores; the previous level's
// bitmap is read-only during the step. The probe is the
// representation's FindFirstIn: a compressed transpose decodes each row
// incrementally and stops at the first hit, so a dense frontier reads
// only the head of most rows.
func (b *bfsInstance[A]) bottomUpStep(w *core.Worker, nd uint32) bfsCnt {
	words := len(b.curBM)
	n := int32(b.g.NumVertices())
	return core.MapReduce(w, words, bfsCnt{}, func(wi int) bfsCnt {
		var cnt bfsCnt
		var nextW uint64
		base := int32(wi) * 64
		hi := base + 64
		if hi > n {
			hi = n
		}
		for v := base; v < hi; v++ {
			if b.dist[v] != distInf {
				continue
			}
			if u := b.tg.FindFirstIn(v, b.curBM); u >= 0 {
				b.dist[v] = nd
				b.parent[v] = u
				nextW |= 1 << uint32(v-base)
				cnt.verts++
				cnt.edges += int64(b.g.Degree(v))
			}
		}
		b.nextBM[wi] = nextW
		return cnt
	}, func(a, c bfsCnt) bfsCnt {
		return bfsCnt{verts: a.verts + c.verts, edges: a.edges + c.edges}
	})
}

// run is the MultiQueue expression (direct mode), the paper's Sec 6
// baseline. Each slot decodes into its own persistent scratch row.
func (b *bfsInstance[A]) run(nWorkers int) {
	nWorkers = max(nWorkers, 1) // mq.Process reads 0 as a default-size pool
	scratch := slotRows(&b.dscratch, nWorkers, b.maxDeg)
	atomic.StoreUint32(&b.dist[b.src], 0)
	seeds := []mq.Item{{Pri: 0, Val: uint64(b.src)}}
	b.mqStats = mq.Process(nWorkers, seeds, func(slot int, it mq.Item, push mq.Pusher) {
		v := int32(it.Val)
		d := uint32(it.Pri)
		if atomic.LoadUint32(&b.dist[v]) < d {
			return // stale task
		}
		nd := d + 1
		for _, u := range b.g.RowInto(v, scratch[slot]) {
			if core.WriteMinU32(&b.dist[u], nd) {
				push.Push(mq.Item{Pri: uint64(nd), Val: uint64(u)})
			}
		}
	})
}

func (b *bfsInstance[A]) runLibrary(w *core.Worker) { b.runHybrid(w) }

func (b *bfsInstance[A]) runDirect(nThreads int) { b.run(nThreads) }

func (b *bfsInstance[A]) verify() error {
	for v := range b.dist {
		if b.dist[v] != b.want[v] {
			return fmt.Errorf("bfs: dist[%d] = %d, want %d", v, b.dist[v], b.want[v])
		}
	}
	return nil
}

// verifyParents checks BFS-tree validity after a library (hybrid) run:
// every reached non-source vertex has a parent one level closer along a
// real edge, and unreached vertices have none.
func (b *bfsInstance[A]) verifyParents() error {
	n := b.g.NumVertices()
	for v := int32(0); v < n; v++ {
		p := b.parent[v]
		if b.dist[v] == distInf {
			if p != -1 {
				return fmt.Errorf("bfs: unreached %d has parent %d", v, p)
			}
			continue
		}
		if v == b.src {
			if p != b.src {
				return fmt.Errorf("bfs: source parent = %d", p)
			}
			continue
		}
		if p < 0 || p >= n {
			return fmt.Errorf("bfs: reached %d has no parent", v)
		}
		if b.dist[p]+1 != b.dist[v] {
			return fmt.Errorf("bfs: parent edge %d->%d spans levels %d->%d",
				p, v, b.dist[p], b.dist[v])
		}
		found := false
		for _, u := range b.g.RowInto(p, b.row) {
			if u == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bfs: parent edge %d->%d not in graph", p, v)
		}
	}
	return nil
}

// bfsOracle computes exact BFS levels sequentially.
func bfsOracle[A graph.Adjacency](g A, src int32) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = distInf
	}
	buf := make([]int32, g.MaxDegree())
	dist[src] = 0
	frontier := []int32{src}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			for _, u := range g.RowInto(v, buf) {
				if dist[u] == distInf {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

func init() {
	core.DeclareSite("bfs", "topdown: distance WriteMin claim", core.AW)
	core.DeclareSite("bfs", "topdown: parent write + frontier append on claim", core.AW)
	core.DeclareSite("bfs", "frontier: bitmap bit set", core.AW)
	core.DeclareSite("bfs", "bottomup: word-owner dist/parent/bitmap writes", core.RO)
	core.DeclareSite("bfs", "frontier: sparse list scatter to bitmap", core.Stride)
	core.DeclareSite("bfs", "frontier: bitmap pack to sparse list", core.Block)
	core.DeclareSite("bfs", "relax: neighbor distance WriteMin (direct)", core.AW)

	Register(Spec{
		Name:   "bfs",
		Long:   "breadth-first search",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			// The symmetrized inputs are their own transpose, so the
			// bottom-up steps scan g's rows as in-edges.
			g := graph.LoadUndirected(nil, input, scale, 0xbf5)
			b := newBFS(g, g, 0)
			b.want = bfsOracle(g, 0)
			return &Instance{
				RunLibrary: b.runLibrary,
				RunDirect:  b.runDirect,
				Verify:     b.verify,
				Reset:      b.reset,
			}
		},
	})
}
