package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mq"
)

// kcore — k-core decomposition by parallel peeling. The outer loop is
// level-synchronous over coreness values: find the minimum remaining
// degree among unpeeled vertices (that value is the next coreness k),
// pack every vertex sitting at the level into a seed batch, and hand
// the batch to the MultiQueue. The cascade then runs asynchronously
// within the level: peeling a vertex fetch-decrements each neighbor's
// remaining degree, and the decrement that lands exactly on k pushes
// that neighbor — the crossing is unique because the decrements are
// atomic and one-at-a-time, so every vertex enters the queue at most
// once per level. Remaining degrees of already-peeled vertices keep
// absorbing decrements harmlessly: their values only move further below
// every future level (a vertex of degree < 2^31 can never wrap back up
// to a live level), which is what makes the unconditional decrement
// safe and branch-free. Coreness values are a graph invariant, so the
// result is byte-identical to the sequential Matula–Beck oracle no
// matter how the relaxed queue interleaves the peels.

type kcoreInstance[A graph.Adjacency] struct {
	g        A
	rd       []uint32 // remaining degree, atomically decremented during cascades
	cn       []uint32 // coreness; distInf = not yet peeled
	want     []uint32
	seedBuf  []int32   // PackIndexInto destination
	seeds    []mq.Item // staged level batch
	dscratch [][]int32 // per-MQ-worker decode rows
	maxDeg   int
	q        *mq.MultiQueue // one queue for every level of every run
	mqStats  mq.Stats       // counters of the last run, all levels
}

func newKCore[A graph.Adjacency](g A) *kcoreInstance[A] {
	n := int(g.NumVertices())
	return &kcoreInstance[A]{
		g:       g,
		rd:      make([]uint32, n),
		cn:      make([]uint32, n),
		seedBuf: make([]int32, n),
		seeds:   make([]mq.Item, 0, n),
		maxDeg:  int(g.MaxDegree()),
	}
}

func (k *kcoreInstance[A]) reset() {
	for v := range k.rd {
		k.rd[v] = uint32(k.g.Degree(int32(v)))
		k.cn[v] = distInf
	}
}

// scratchFor returns per-worker decode rows for nWorkers MultiQueue
// workers, grown once and reused across runs.
func (k *kcoreInstance[A]) scratchFor(nWorkers int) [][]int32 {
	for len(k.dscratch) < nWorkers {
		k.dscratch = append(k.dscratch, make([]int32, k.maxDeg))
	}
	return k.dscratch
}

func (k *kcoreInstance[A]) runLibrary(w *core.Worker) {
	nWorkers := 1
	if w != nil {
		nWorkers = w.Pool().Workers()
	}
	k.runLevels(w, nWorkers)
}

func (k *kcoreInstance[A]) runLevels(w *core.Worker, nWorkers int) {
	n := int(k.g.NumVertices())
	scratch := k.scratchFor(nWorkers)
	// One MultiQueue serves every level: each cascade drains it, so the
	// next level finds it empty with its heaps and worker buffers grown.
	if k.q == nil || k.q.NQueues() != mq.QueuesPerWorker*nWorkers {
		k.q = mq.New(mq.QueuesPerWorker * nWorkers)
	}
	k.q.Reset()
	var peeled atomic.Int64
	// The level's closures are built once and read kc, which only moves
	// between cascades, when nothing else runs.
	var kc uint32
	lowest := func(lo, hi int) uint32 {
		m := distInf
		for v := lo; v < hi; v++ {
			if k.cn[v] == distInf && k.rd[v] < m {
				m = k.rd[v]
			}
		}
		return m
	}
	lower := func(a, b uint32) uint32 { return min(a, b) }
	atLevel := func(v int) bool { return k.cn[v] == distInf && k.rd[v] <= kc }
	peel := func(wi int, it mq.Item, push mq.Pusher) {
		// The level rides in on the item: a cascade must not read the
		// shared kc, which would sit on the cache line peeled's
		// fetch-adds keep dirtying.
		v, kc := int32(it.Val), uint32(it.Pri)
		// Seeds arrive pre-claimed; cascade pushes claim here. No
		// CAS needed: the unique crossing means exactly one push
		// per vertex per level.
		if atomic.LoadUint32(&k.cn[v]) == distInf {
			atomic.StoreUint32(&k.cn[v], kc)
			peeled.Add(1)
		}
		for _, u := range k.g.RowInto(v, scratch[wi]) {
			if atomic.AddUint32(&k.rd[u], ^uint32(0)) == kc {
				push.Push(mq.Item{Pri: uint64(kc), Val: uint64(u)})
			}
		}
	}
	for int(peeled.Load()) < n {
		// Next level: minimum remaining degree over unpeeled vertices.
		// The arrays are quiescent between cascades, so plain reads.
		kc = core.ReduceBlocks(w, n, distInf, lowest, lower)
		// Seeds: every unpeeled vertex at the level. The predicate is
		// read-only (PackIndexInto may evaluate it twice); the claim —
		// writing the coreness — happens in the sequential staging loop
		// below, before any cascade runs.
		seedIdx := core.PackIndexInto(w, n, atLevel, k.seedBuf)
		if len(seedIdx) == 0 {
			// The minimum vertex is always a seed, so every vertex is
			// already peeled: without this the loop would drive empty
			// batches forever.
			panic("kcore: no unpeeled vertex left at the start of a run; call Reset before each RunLibrary")
		}
		items := k.seeds[:0]
		for _, v := range seedIdx {
			k.cn[v] = kc
			items = append(items, mq.Item{Pri: uint64(kc), Val: uint64(v)})
		}
		peeled.Add(int64(len(seedIdx)))
		k.mqStats = mq.ProcessBatchOn(k.q, nWorkers, items, mq.Options{}, peel)
	}
}

// runDirect is the hand-rolled baseline: the same level-synchronous
// peel with explicit sub-round frontiers on statically chunked
// goroutines instead of the MultiQueue cascade.
func (k *kcoreInstance[A]) runDirect(nThreads int) {
	n := int(k.g.NumVertices())
	frontier := make([]int32, 0, n)
	next := make([]int32, n)
	var peeled int64
	for peeled < int64(n) {
		kc := uint32(distInf)
		for v := 0; v < n; v++ {
			if k.cn[v] == distInf && k.rd[v] < kc {
				kc = k.rd[v]
			}
		}
		frontier = frontier[:0]
		for v := 0; v < n; v++ {
			if k.cn[v] == distInf && k.rd[v] <= kc {
				k.cn[v] = kc
				frontier = append(frontier, int32(v))
			}
		}
		if len(frontier) == 0 {
			panic("kcore: no unpeeled vertex left at the start of a run; call Reset before each RunDirect")
		}
		peeled += int64(len(frontier))
		for len(frontier) > 0 {
			var nn atomic.Int64
			cur := frontier
			directFor(nThreads, len(cur), func(lo, hi int) {
				buf := make([]int32, k.maxDeg)
				for i := lo; i < hi; i++ {
					for _, u := range k.g.RowInto(cur[i], buf) {
						if atomic.AddUint32(&k.rd[u], ^uint32(0)) == kc {
							atomic.StoreUint32(&k.cn[u], kc)
							// The unique kc-crossing hands each peeled
							// vertex its own slot.
							next[nn.Add(1)-1] = u
						}
					}
				}
			})
			cnt := int(nn.Load())
			peeled += int64(cnt)
			frontier = append(frontier[:0], next[:cnt]...)
		}
	}
}

func (k *kcoreInstance[A]) verify() error {
	for v := range k.cn {
		if k.cn[v] != k.want[v] {
			return fmt.Errorf("kcore: coreness[%d] = %d, want %d", v, k.cn[v], k.want[v])
		}
	}
	return nil
}

// stat returns the degeneracy (maximum coreness), the cross-variant
// determinism statistic.
func (k *kcoreInstance[A]) stat() int64 {
	var max uint32
	for _, c := range k.cn {
		if c > max {
			max = c
		}
	}
	return int64(max)
}

// kcoreOracle is the sequential Matula–Beck peel: repeatedly remove a
// minimum-remaining-degree vertex, assigning it the running maximum of
// those minima as its coreness.
func kcoreOracle[A graph.Adjacency](g A) []uint32 {
	n := int(g.NumVertices())
	rd := make([]uint32, n)
	cn := make([]uint32, n)
	buf := make([]int32, g.MaxDegree())
	for v := 0; v < n; v++ {
		rd[v] = uint32(g.Degree(int32(v)))
		cn[v] = distInf
	}
	queue := make([]int32, 0, n)
	peeled := 0
	for peeled < n {
		kc := uint32(distInf)
		for v := 0; v < n; v++ {
			if cn[v] == distInf && rd[v] < kc {
				kc = rd[v]
			}
		}
		queue = queue[:0]
		for v := 0; v < n; v++ {
			if cn[v] == distInf && rd[v] <= kc {
				cn[v] = kc
				queue = append(queue, int32(v))
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			peeled++
			for _, u := range g.RowInto(v, buf) {
				if cn[u] != distInf {
					continue
				}
				rd[u]--
				if rd[u] == kc {
					cn[u] = kc
					queue = append(queue, u)
				}
			}
		}
	}
	return cn
}

func init() {
	core.DeclareSite("kcore", "level: min remaining-degree scan", core.RO)
	core.DeclareSite("kcore", "seed: unpeeled level pack", core.Block)
	core.DeclareSite("kcore", "peel: remaining-degree fetch-decrement", core.AW)
	core.DeclareSite("kcore", "peel: coreness claim store", core.AW)

	Register(Spec{
		Name:   "kcore",
		Long:   "k-core decomposition",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			g := graph.LoadUndirected(nil, input, scale, 0x6c0)
			k := newKCore(g)
			k.want = kcoreOracle(g)
			return &Instance{
				RunLibrary: k.runLibrary,
				RunDirect:  k.runDirect,
				Verify:     k.verify,
				Reset:      k.reset,
				Stat:       k.stat,
			}
		},
	})
}
