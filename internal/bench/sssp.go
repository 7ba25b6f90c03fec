package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mq"
)

// sssp — single-source shortest paths. The library expression is
// delta-stepping (Meyer & Sanders) layered on the batched MultiQueue
// (docs/GRAPH.md): task priority is the distance bucket floor(d/delta),
// workers pop whole buckets of vertices per lock acquisition
// (mq.ProcessBatchOn), relax out-edges with WriteMin (AW), and stage the
// improved vertices in per-slot buffers that flush to the queue in
// batches. The direct expression keeps the paper's relaxed Dijkstra
// (Sec 6 / Postnikova et al.): one vertex per queue operation, priority
// = exact tentative distance. In both, priority inversions from the
// relaxed queue cost wasted work, never wrong answers: stale tasks are
// dropped against the distance array, and the distance array — not the
// queue order — defines the result.
//
// The instance is generic over graph.WAdjacency: the plain *graph.WGraph
// relaxation reads its interior row slices, while the compressed
// *graph.CWGraph decodes each popped vertex's row into the slot's
// persistent scratch (indexed by the MultiQueue slot id) and reads
// the uncompressed weight slice alongside.

type ssspInstance[A graph.WAdjacency] struct {
	g          A
	src        int32
	deltaShift uint32   // log2 of the delta-stepping bucket width
	dist       []uint32 // atomic access during runs
	qb         []uint32 // bucket each vertex is queued at (distInf: not queued)
	want       []uint32

	maxDeg   int
	dscratch [][]int32      // per-MultiQueue-slot decode rows
	q        *mq.MultiQueue // the library's queue, kept from run to run

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
		q:          mq.New(0),
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

// runDeltaOn is the delta-stepping library expression: it drives the
// instance's batched queue on w's pool.
func (s *ssspInstance[A]) runDeltaOn(w *core.Worker) {
	slots := 1
	if w != nil {
		slots = w.Pool().Workers()
	}
	scratch := slotRows(&s.dscratch, slots, s.maxDeg)
	atomic.StoreUint32(&s.dist[s.src], 0)
	shift := s.deltaShift
	seeds := []mq.Item{{Pri: 0, Val: uint64(s.src)}}
	s.q.Reset()
	s.mqStats = mq.ProcessBatchOn(w, s.q, seeds, mq.Options{}, func(slot int, it mq.Item, push mq.Pusher) {
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
		adj, wgt := s.g.WRow(v, scratch[slot])
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

// runDelta runs the library expression on a pool of nWorkers workers of
// its own, for callers that hold no worker.
func (s *ssspInstance[A]) runDelta(nWorkers int) {
	p := core.NewPool(nWorkers)
	defer p.Close()
	p.Do(s.runDeltaOn)
}

// run is the relaxed-Dijkstra direct expression, one vertex per op.
func (s *ssspInstance[A]) run(nWorkers int) {
	nWorkers = max(nWorkers, 1) // mq.Process reads 0 as a default-size pool
	scratch := slotRows(&s.dscratch, nWorkers, s.maxDeg)
	atomic.StoreUint32(&s.dist[s.src], 0)
	seeds := []mq.Item{{Pri: 0, Val: uint64(s.src)}}
	s.mqStats = mq.Process(nWorkers, seeds, func(slot int, it mq.Item, push mq.Pusher) {
		v := int32(it.Val)
		d := uint32(it.Pri)
		if atomic.LoadUint32(&s.dist[v]) < d {
			return // superseded by a shorter path
		}
		adj, wgt := s.g.WRow(v, scratch[slot])
		for i, u := range adj {
			nd := d + wgt[i]
			if core.WriteMinU32(&s.dist[u], nd) {
				push.Push(mq.Item{Pri: uint64(nd), Val: uint64(u)})
			}
		}
	})
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

	Register(Spec{
		Name:   "sssp",
		Long:   "single-source shortest path",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			g := graph.LoadUndirectedWeighted(nil, input, scale, 0x555)
			s := newSSSP(g, 0)
			s.want = dijkstraOracle(g, 0)
			return &Instance{
				RunLibrary: s.runDeltaOn,
				RunDirect:  s.runDirect,
				Verify:     s.verify,
				Reset:      s.reset,
			}
		},
	})
}
