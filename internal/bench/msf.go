package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// msf — minimum spanning forest (PBBS): parallel Borůvka. Each round,
// every live edge offers itself to both endpoint components via a
// WriteMin of (weight, edge-id) on the component roots (AW priority
// writes); each component's winning edge joins the forest and unions
// the components; edges internal to a component die. Weight-id packing
// makes the winner deterministic despite racy scheduling.

type msfInstance struct {
	edges []graph.WEdge
	n     int32
	best  []uint64      // per-vertex best (weight<<32 | edgeID), atomic
	uf    *unionfind.UF // built once, Reset between rounds
	inMSF []bool
	want  uint64 // oracle total weight

	// Round-persistent scratch (docs/MEMORY.md): the live-edge frontier
	// and its ping-pong partner.
	live  []int32
	spare []int32
}

const msfNone = ^uint64(0)

func (m *msfInstance) reset() {
	for i := range m.inMSF {
		m.inMSF[i] = false
	}
	m.uf.Reset()
}

func msfKey(w uint32, ei int) uint64 { return uint64(w)<<32 | uint64(uint32(ei)) }

func (m *msfInstance) runLibrary(w *core.Worker) {
	uf := m.uf
	if cap(m.spare) > cap(m.live) {
		// The last run may have ended with the buffers swapped; seed
		// the full frontier into the one that already holds it.
		m.live, m.spare = m.spare, m.live
	}
	m.live = core.EnsureLen(m.live, len(m.edges))
	live := m.live
	core.ForBlocks(w, 0, len(live), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			live[i] = int32(i)
		}
	})
	// Round bodies are built once per run and read the frontier via the
	// instance, so rounds allocate nothing beyond scratch warm-up.
	// The reset sweep needs no atomics: the races certificate proves
	// best[v] range-owned in this region (lint-races.json, class
	// index-disjoint), and the pool's fork/join edges publish the
	// stores to the offer round that follows.
	clearBest := func(lo, hi int) {
		for v := lo; v < hi; v++ {
			m.best[v] = msfNone
		}
	}
	offer := func(lo, hi int) {
		// Offer every live edge to both endpoint components (AW).
		for _, ei := range m.live[lo:hi] {
			e := m.edges[ei]
			ru, rv := uf.Find(e.From), uf.Find(e.To)
			if ru == rv {
				continue
			}
			k := msfKey(e.W, int(ei))
			core.WriteMinU64(&m.best[ru], k)
			core.WriteMinU64(&m.best[rv], k)
		}
	}
	commit := func(lo, hi int) {
		// Commit: the winning edge of each component unions and joins.
		for _, ei := range m.live[lo:hi] {
			e := m.edges[ei]
			ru, rv := uf.Find(e.From), uf.Find(e.To)
			if ru == rv {
				continue
			}
			k := msfKey(e.W, int(ei))
			if atomic.LoadUint64(&m.best[ru]) == k || atomic.LoadUint64(&m.best[rv]) == k {
				if uf.Union(e.From, e.To) {
					m.inMSF[ei] = true //lint:scared ei is read from m.live[lo:hi], and live holds each edge id at most once (identity fill, then packed subsequences): one writer per ei
				}
			}
		}
	}
	external := func(lo, hi int) uint64 {
		var mask uint64
		for k, ei := range m.live[lo:hi] {
			if e := m.edges[ei]; !uf.SameSet(e.From, e.To) {
				mask |= 1 << uint(k)
			}
		}
		return mask
	}
	for len(m.live) > 0 {
		core.ForBlocks(w, 0, int(m.n), 0, clearBest)
		core.ForBlocks(w, 0, len(m.live), 0, offer)
		core.ForBlocks(w, 0, len(m.live), 0, commit)
		// Drop edges now internal to one component: pack the survivors
		// straight into the ping-pong partner.
		m.spare = core.PackInto(w, m.live, external, m.spare)
		m.live, m.spare = m.spare, m.live
	}
}

func (m *msfInstance) runDirect(nThreads int) {
	uf := unionfind.New(m.n)
	live := make([]int32, len(m.edges))
	for i := range live {
		live[i] = int32(i)
	}
	for len(live) > 0 {
		directFor(nThreads, int(m.n), func(lo, hi int) {
			for v := lo; v < hi; v++ {
				atomic.StoreUint64(&m.best[v], msfNone)
			}
		})
		directFor(nThreads, len(live), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e := m.edges[live[i]]
				ru, rv := uf.Find(e.From), uf.Find(e.To)
				if ru == rv {
					continue
				}
				k := msfKey(e.W, int(live[i]))
				directWriteMin64(&m.best[ru], k)
				directWriteMin64(&m.best[rv], k)
			}
		})
		directFor(nThreads, len(live), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ei := live[i]
				e := m.edges[ei]
				ru, rv := uf.Find(e.From), uf.Find(e.To)
				if ru == rv {
					continue
				}
				k := msfKey(e.W, int(ei))
				if atomic.LoadUint64(&m.best[ru]) == k || atomic.LoadUint64(&m.best[rv]) == k {
					if uf.Union(e.From, e.To) {
						m.inMSF[ei] = true
					}
				}
			}
		})
		next := live[:0]
		for _, ei := range live {
			e := m.edges[ei]
			if !uf.SameSet(e.From, e.To) {
				next = append(next, ei)
			}
		}
		live = next
	}
}

func directWriteMin64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}

func (m *msfInstance) verify() error {
	check := unionfind.New(m.n)
	var total uint64
	count := 0
	for ei, in := range m.inMSF {
		if !in {
			continue
		}
		e := m.edges[ei]
		if !check.Union(e.From, e.To) {
			return fmt.Errorf("msf: cycle through edge %d", ei)
		}
		total += uint64(e.W)
		count++
	}
	for ei, e := range m.edges {
		if !check.SameSet(e.From, e.To) {
			return fmt.Errorf("msf: edge %d endpoints not connected", ei)
		}
	}
	if total != m.want {
		return fmt.Errorf("msf: total weight %d, want %d (%d edges)", total, m.want, count)
	}
	return nil
}

// kruskalOracle computes the MSF weight sequentially.
func kruskalOracle(edges []graph.WEdge, n int32) uint64 {
	order := make([]int32, len(edges))
	for i := range order {
		order[i] = int32(i)
	}
	core.SortBy(nil, order, func(a, b int32) bool {
		ea, eb := edges[a], edges[b]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return a < b
	})
	uf := unionfind.New(n)
	var total uint64
	for _, ei := range order {
		e := edges[ei]
		if uf.Union(e.From, e.To) {
			total += uint64(e.W)
		}
	}
	return total
}

func newMSF(input string, scale Scale) *msfInstance {
	edgesPlain, n := graph.UndirectedEdgeList(nil, input, scale, 0x35f)
	edges := graph.AddWeights(nil, edgesPlain, 1<<16, 0x35f+1)
	return &msfInstance{
		edges: edges,
		n:     n,
		best:  make([]uint64, n),
		uf:    unionfind.New(n),
		inMSF: make([]bool, len(edges)),
		want:  kruskalOracle(edges, n),
	}
}

func init() {
	core.DeclareSite("msf", "offer: edges/weights read", core.RO)
	core.DeclareSite("msf", "offer: find parent chase read", core.AW)
	core.DeclareSite("msf", "offer: best WriteMin at root", core.AW)
	core.DeclareSite("msf", "reset: best write via root (indirect)", core.SngInd)
	core.DeclareSite("msf", "commit: best read", core.AW)
	core.DeclareSite("msf", "commit: union hook CAS", core.AW)
	core.DeclareSite("msf", "commit: own inMSF write", core.Stride)
	core.DeclareSite("msf", "live-edge pack write", core.Block)
	core.DeclareSite("msf", "find recursion", core.DC)

	Register(Spec{
		Name:   "msf",
		Long:   "minimum spanning forest",
		Inputs: []string{graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			m := newMSF(input, scale)
			return &Instance{
				RunLibrary: m.runLibrary,
				RunDirect:  m.runDirect,
				Verify:     m.verify,
				Reset:      m.reset,
			}
		},
	})
}
