package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/seqgen"
)

// mis — maximal independent set (PBBS): Blelloch-style deterministic
// parallel MIS with random priorities. Rounds over the remaining
// vertices: a vertex whose priority beats every remaining neighbor
// enters the set and knocks its neighbors out. The neighbor knock-out
// writes are the AW pattern — conflicting same-value stores that Rust
// (and Go's race detector) reject unsynchronized, expressed with atomic
// stores.

const (
	misLive = 0 // undecided
	misIn   = 1 // in the MIS
	misOut  = 2 // dominated by an MIS neighbor
)

type misInstance struct {
	g      *graph.Graph
	pri    []uint32
	status []int32 // atomic access

	// Round-persistent scratch (docs/MEMORY.md): the frontier and its
	// ping-pong partner. Grown once, reused every round and every
	// benchmark repetition.
	frontier []int32
	spare    []int32
}

func (m *misInstance) reset() {
	for i := range m.status {
		m.status[i] = misLive
	}
}

// beatAllNeighbors reports whether v's priority is a strict local
// minimum among its still-live neighbors (ties broken by id).
func (m *misInstance) beatsAllNeighbors(v int32) bool {
	pv := m.pri[v]
	for _, u := range m.g.Neighbors(v) {
		if atomic.LoadInt32(&m.status[u]) == misOut {
			continue
		}
		pu := m.pri[u]
		if pu < pv || (pu == pv && u < v) {
			return false
		}
	}
	return true
}

func (m *misInstance) runLibrary(w *core.Worker) {
	n := int(m.g.N)
	if cap(m.spare) > cap(m.frontier) {
		// The last run may have ended with the buffers swapped; seed
		// the full frontier into the one that already holds it.
		m.frontier, m.spare = m.spare, m.frontier
	}
	m.frontier = core.EnsureLen(m.frontier, n)
	frontier := m.frontier
	core.ForBlocks(w, 0, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			frontier[i] = int32(i)
		}
	})
	// The round bodies are built once per run and read the frontier via
	// the instance, so rounds allocate nothing beyond frontier growth
	// (and that only until the scratch has warmed).
	winner := func(lo, hi int) {
		// Phase A (RO + Stride): winners determine themselves; each task
		// writes only its own status slot.
		for _, v := range m.frontier[lo:hi] {
			if atomic.LoadInt32(&m.status[v]) == misLive && m.beatsAllNeighbors(v) {
				atomic.StoreInt32(&m.status[v], misIn)
			}
		}
	}
	knock := func(lo, hi int) {
		// Phase B (AW): winners knock out neighbors — overlapping
		// same-value stores, synchronized with atomics.
		for _, v := range m.frontier[lo:hi] {
			if atomic.LoadInt32(&m.status[v]) != misIn {
				continue
			}
			for _, u := range m.g.Neighbors(v) {
				atomic.StoreInt32(&m.status[u], misOut)
			}
		}
	}
	live := func(lo, hi int) uint64 {
		var mask uint64
		for k, v := range m.frontier[lo:hi] {
			if atomic.LoadInt32(&m.status[v]) == misLive {
				mask |= 1 << uint(k)
			}
		}
		return mask
	}
	for len(m.frontier) > 0 {
		core.ForBlocks(w, 0, len(m.frontier), 0, winner)
		core.ForBlocks(w, 0, len(m.frontier), 0, knock)
		// Shrink the frontier: pack the live vertices straight into the
		// ping-pong partner.
		m.spare = core.PackInto(w, m.frontier, live, m.spare)
		m.frontier, m.spare = m.spare, m.frontier
	}
}

func (m *misInstance) runDirect(nThreads int) {
	n := int(m.g.N)
	remaining := make([]int32, n)
	for i := range remaining {
		remaining[i] = int32(i)
	}
	for len(remaining) > 0 {
		directFor(nThreads, len(remaining), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := remaining[i]
				if atomic.LoadInt32(&m.status[v]) != misLive {
					continue
				}
				if m.beatsAllNeighbors(v) {
					atomic.StoreInt32(&m.status[v], misIn)
				}
			}
		})
		directFor(nThreads, len(remaining), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := remaining[i]
				if atomic.LoadInt32(&m.status[v]) != misIn {
					continue
				}
				for _, u := range m.g.Neighbors(v) {
					atomic.StoreInt32(&m.status[u], misOut)
				}
			}
		})
		next := remaining[:0]
		for _, v := range remaining {
			if atomic.LoadInt32(&m.status[v]) == misLive {
				next = append(next, v)
			}
		}
		remaining = next
	}
}

func (m *misInstance) verify() error {
	// Independence: no two adjacent vertices both in the set.
	// Maximality: every vertex is in the set or has a neighbor in it.
	for v := int32(0); v < m.g.N; v++ {
		switch m.status[v] {
		case misIn:
			for _, u := range m.g.Neighbors(v) {
				if m.status[u] == misIn {
					return fmt.Errorf("mis: adjacent vertices %d and %d both in set", v, u)
				}
			}
		case misOut:
			ok := false
			for _, u := range m.g.Neighbors(v) {
				if m.status[u] == misIn {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("mis: vertex %d excluded without an MIS neighbor", v)
			}
		default:
			return fmt.Errorf("mis: vertex %d left undecided", v)
		}
	}
	return nil
}

func newMIS(input string, scale Scale) *misInstance {
	g := graph.LoadUndirected(nil, input, scale, 0x315)
	r := seqgen.NewRng(0x315315)
	pri := core.Tabulate(nil, int(g.N), func(i int) uint32 {
		return uint32(r.U64(uint64(i)))
	})
	m := &misInstance{g: g, pri: pri, status: make([]int32, g.N)}
	m.reset()
	return m
}

func init() {
	core.DeclareSite("mis", "win: priorities read", core.RO)
	core.DeclareSite("mis", "win: neighbor list read", core.RO)
	core.DeclareSite("mis", "win: neighbor status read", core.AW)
	core.DeclareSite("mis", "win: own status write", core.Stride)
	core.DeclareSite("mis", "knockout: neighbor status write", core.AW)
	core.DeclareSite("mis", "frontier pack write", core.Block)
	core.DeclareSite("mis", "round recursion", core.DC)

	Register(Spec{
		Name:   "mis",
		Long:   "maximal independent set",
		Inputs: []string{graph.InputLink, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			m := newMIS(input, scale)
			return &Instance{
				RunLibrary: m.runLibrary,
				RunDirect:  m.runDirect,
				Verify:     m.verify,
				Reset:      m.reset,
				Stat: func() int64 {
					var n int64
					for v := range m.status {
						if m.status[v] == misIn {
							n++
						}
					}
					return n
				},
			}
		},
	})
}
