package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mq"
)

// sssp — single-source shortest paths. The library expression is
// delta-stepping (Meyer & Sanders) layered on the batched MultiQueue
// (docs/GRAPH.md): task priority is the distance bucket floor(d/delta),
// workers pop whole buckets of vertices per lock acquisition
// (mq.ProcessBatch), relax out-edges with WriteMin (AW), and stage the
// improved vertices in per-worker buffers that flush to the queue in
// batches. The direct expression keeps the paper's relaxed Dijkstra
// (Sec 6 / Postnikova et al.): one vertex per queue operation, priority
// = exact tentative distance. In both, priority inversions from the
// relaxed queue cost wasted work, never wrong answers: stale tasks are
// dropped against the distance array, and the distance array — not the
// queue order — defines the result.
//
// The instance is generic over graph.WAdjacency: the plain *graph.WGraph
// relaxation reads its interior row slices, while the compressed
// *graph.CWGraph decodes each popped vertex's row into the worker's
// persistent scratch (indexed by the MultiQueue worker id) and reads
// the uncompressed weight slice alongside.

type ssspInstance[A graph.WAdjacency] struct {
	g          A
	src        int32
	deltaShift uint32   // log2 of the delta-stepping bucket width
	dist       []uint32 // atomic access during runs
	qb         []uint32 // bucket each vertex is queued at (distInf: not queued)
	want       []uint32

	// Pull-mode state (SetTranspose): the weighted in-edge view the
	// synchronous Bellman-Ford rounds of runPull gather from.
	tg      A
	hasTG   bool
	tmaxDeg int

	maxDeg   int
	dscratch [][]int32 // per-MultiQueue-worker decode rows

	mqStats mq.Stats // counters from the last run (either mode)
}

func newSSSP[A graph.WAdjacency](g A, src int32) *ssspInstance[A] {
	n := g.NumVertices()
	s := &ssspInstance[A]{
		g:          g,
		src:        src,
		deltaShift: deltaFor(g),
		dist:       make([]uint32, n),
		qb:         make([]uint32, n),
		maxDeg:     int(g.MaxDegree()),
	}
	s.reset()
	return s
}

func (s *ssspInstance[A]) reset() {
	for i := range s.dist {
		s.dist[i] = distInf
		s.qb[i] = distInf
	}
}

func (s *ssspInstance[A]) scratchFor(nWorkers int) [][]int32 {
	for len(s.dscratch) < nWorkers {
		s.dscratch = append(s.dscratch, make([]int32, s.maxDeg))
	}
	return s.dscratch[:nWorkers]
}

// deltaFor picks the bucket width: maxW/avgDeg (the classic heuristic —
// one bucket's worth of relaxations roughly matches one vertex's edge
// fan-out) rounded down to a power of two, so the per-relaxation bucket
// computation is a shift instead of a division. Returns the shift.
func deltaFor[A graph.WAdjacency](g A) uint32 {
	var maxW uint32 = 1
	n := g.NumVertices()
	buf := make([]int32, g.MaxDegree())
	for v := int32(0); v < n; v++ {
		_, wgt := g.WRow(v, buf)
		for _, w := range wgt {
			if w > maxW {
				maxW = w
			}
		}
	}
	avgDeg := g.NumEdges() / int64(n)
	if avgDeg < 1 {
		avgDeg = 1
	}
	d := int64(maxW) / avgDeg
	var shift uint32
	for d >= 2 {
		d >>= 1
		shift++
	}
	return shift
}

// runDelta is the delta-stepping library expression over the batched
// queue.
func (s *ssspInstance[A]) runDelta(nWorkers int) {
	scratch := s.scratchFor(nWorkers)
	atomic.StoreUint32(&s.dist[s.src], 0)
	shift := s.deltaShift
	seeds := []mq.Item{{Pri: 0, Val: uint64(s.src)}}
	s.mqStats = mq.ProcessBatch(nWorkers, seeds, mq.Options{}, func(wi int, it mq.Item, push mq.Pusher) {
		v := int32(it.Val)
		// Leave the bucket BEFORE reading the distance: Go atomics are
		// sequentially consistent, so a relaxer that observed our old
		// bucket marker (and therefore skipped its re-queue) must have
		// written its improved distance before we read it here — no
		// improvement is ever both unqueued and unseen.
		atomic.StoreUint32(&s.qb[v], distInf)
		d := atomic.LoadUint32(&s.dist[v])
		if uint64(d>>shift) < it.Pri {
			return // superseded: v moved to an earlier bucket
		}
		adj, wgt := s.g.WRow(v, scratch[wi])
		for i, u := range adj {
			nd := d + wgt[i]
			if core.WriteMinU32(&s.dist[u], nd) {
				// Re-queue only when u is not already queued at this
				// bucket or earlier: one queue entry covers all further
				// same-bucket improvements, the dedup that makes bucket
				// priorities cheaper than exact distances.
				nb := nd >> shift
				if core.WriteMinU32(&s.qb[u], nb) {
					push.Push(mq.Item{Pri: uint64(nb), Val: uint64(u)})
				}
			}
		}
	})
}

// run is the relaxed-Dijkstra direct expression: exact distances as
// priorities, one vertex per queue operation.
func (s *ssspInstance[A]) run(nWorkers int) {
	scratch := s.scratchFor(nWorkers)
	atomic.StoreUint32(&s.dist[s.src], 0)
	seeds := []mq.Item{{Pri: 0, Val: uint64(s.src)}}
	s.mqStats = mq.Process(nWorkers, seeds, func(wi int, it mq.Item, push mq.Pusher) {
		v := int32(it.Val)
		d := uint32(it.Pri)
		if atomic.LoadUint32(&s.dist[v]) < d {
			return // superseded by a shorter path
		}
		adj, wgt := s.g.WRow(v, scratch[wi])
		for i, u := range adj {
			nd := d + wgt[i]
			if core.WriteMinU32(&s.dist[u], nd) {
				push.Push(mq.Item{Pri: uint64(nd), Val: uint64(u)})
			}
		}
	})
}

// setTranspose installs the weighted in-edge view runPull gathers
// from. For the undirected standard inputs the transpose carries the
// same edges as the graph, but pull mode streams it — a compressed
// transpose (graph.CWGraph, pool-sharing with the forward graph) makes
// the whole pull round run over compressed rows.
func (s *ssspInstance[A]) setTranspose(tg A) {
	s.tg = tg
	s.hasTG = true
	s.tmaxDeg = int(tg.MaxDegree())
}

// runPull is the synchronous pull expression: Bellman-Ford rounds over
// the in-edge view. Each round, every vertex decodes its transpose row
// and gathers min(dist[u] + w(u,v)) over its in-neighbors; rounds
// repeat until no distance improves. Writes are per-vertex — each task
// stores only its own dist[v] — while the gathered neighbor distances
// are racy atomic loads that may see same-round improvements early;
// like the push relaxation, a stale read only delays convergence by a
// round (the distance array is monotone non-increasing and bounded by
// the true distances), never corrupts it. Rows decode into per-chunk
// arena scratch, Mark/Release bracketed like the BFS expansion, so the
// steady state allocates nothing.
func (s *ssspInstance[A]) runPull(w *core.Worker) {
	if !s.hasTG {
		panic("bench: sssp runPull needs setTranspose first")
	}
	atomic.StoreUint32(&s.dist[s.src], 0)
	n := int(s.tg.NumVertices())
	for {
		var changed atomic.Int64
		relax := func(ww *core.Worker, lo, hi int) {
			a := arena.Of(ww)
			am := a.Mark()
			buf := arena.AllocUninit[int32](a, s.tmaxDeg)
			var improved int64
			for v := lo; v < hi; v++ {
				d0 := atomic.LoadUint32(&s.dist[v])
				best := d0
				adj, wgt := s.tg.WRow(int32(v), buf)
				for i, u := range adj {
					du := atomic.LoadUint32(&s.dist[u])
					if du == distInf {
						continue
					}
					if nd := du + wgt[i]; nd < best {
						best = nd
					}
				}
				if best < d0 {
					atomic.StoreUint32(&s.dist[v], best)
					improved++
				}
			}
			a.Release(am)
			if improved > 0 {
				changed.Add(improved)
			}
		}
		w.For(0, n, 0, relax)
		if changed.Load() == 0 {
			return
		}
	}
}

func (s *ssspInstance[A]) runLibrary(w *core.Worker) {
	n := 1
	if w != nil {
		n = w.Pool().Workers()
	}
	s.runDelta(n)
}

func (s *ssspInstance[A]) runDirect(nThreads int) { s.run(nThreads) }

func (s *ssspInstance[A]) verify() error {
	for v := range s.dist {
		if s.dist[v] != s.want[v] {
			return fmt.Errorf("sssp: dist[%d] = %d, want %d", v, s.dist[v], s.want[v])
		}
	}
	return nil
}

// dijkstraOracle computes exact distances with a sequential binary-heap
// Dijkstra.
func dijkstraOracle[A graph.WAdjacency](g A, src int32) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = distInf
	}
	buf := make([]int32, g.MaxDegree())
	dist[src] = 0
	type hi struct {
		d uint32
		v int32
	}
	heap := []hi{{0, src}}
	push := func(x hi) {
		heap = append(heap, x)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() hi {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && heap[l].d < heap[m].d {
				m = l
			}
			if r < len(heap) && heap[r].d < heap[m].d {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}
	for len(heap) > 0 {
		top := pop()
		if top.d > dist[top.v] {
			continue
		}
		adj, wgt := g.WRow(top.v, buf)
		for i, u := range adj {
			nd := top.d + wgt[i]
			if nd < dist[u] {
				dist[u] = nd
				push(hi{nd, u})
			}
		}
	}
	return dist
}

// GraphQueueTelemetry runs sssp once in each queue discipline at the
// given scale and thread count and returns the MultiQueue operation
// counters: single-item relaxed Dijkstra vs batched delta-stepping. The
// locks-per-popped-item drop is the headline of `rpbreport -what
// graph`.
func GraphQueueTelemetry(scale Scale, threads int) (single, batched mq.Stats, err error) {
	g := graph.LoadUndirectedWeighted(nil, graph.InputRMAT, scale, 0x555)
	s := newSSSP(g, 0)
	s.want = dijkstraOracle(g, 0)
	s.run(threads)
	if err = s.verify(); err != nil {
		return
	}
	single = s.mqStats
	s.reset()
	s.runDelta(threads)
	if err = s.verify(); err != nil {
		return
	}
	batched = s.mqStats
	return
}

func init() {
	core.DeclareSite("sssp", "task: own distance read + bucket staleness", core.AW)
	core.DeclareSite("sssp", "task: neighbor/weight read", core.AW)
	core.DeclareSite("sssp", "relax: neighbor distance WriteMin", core.AW)
	core.DeclareSite("sssp", "push: batched bucket re-queue", core.AW)
	core.DeclareSite("sssp", "pull: in-neighbor distance gather", core.AW)
	core.DeclareSite("sssp", "pull: own distance store + changed counter", core.AW)

	Register(Spec{
		Name:   "sssp",
		Long:   "single-source shortest path",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			g := graph.LoadUndirectedWeighted(nil, input, scale, 0x555)
			s := newSSSP(g, 0)
			s.want = dijkstraOracle(g, 0)
			return &Instance{
				RunLibrary: s.runLibrary,
				RunDirect:  s.runDirect,
				Verify:     s.verify,
				Reset:      s.reset,
			}
		},
	})
}
