package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/graph"
)

// pr — PageRank, synchronous pull iteration. Each round first writes
// every vertex's out-contribution (rank over out-degree, an owner
// write), folds the dangling mass (rank parked on zero-out-degree
// vertices) through fixed-size block-owner partials, then gathers: each
// vertex pulls its in-neighbors' contributions through the transpose
// adjacency, with the row decoding into per-chunk arena scratch so the
// same gather runs over the plain and the compressed transpose.
// Convergence is tracked with a fetch-add round counter, the kernel's
// scared AW site.
//
// The result is bit-identical across schedules and representations:
// every float64 sum is either an owner-sequential row gather (row order
// fixed by the sorted adjacency) or the two-level dangling fold whose
// block boundaries and combine order are fixed by prBlock, never by the
// schedule. The sequential oracle runs the identical arithmetic.

type prInstance[A graph.Adjacency] struct {
	g       A // forward adjacency: out-degrees
	tg      A // transpose adjacency: pull gathers
	rank    []float64
	next    []float64
	contrib []float64
	part    []float64 // block-owner dangling partials
	want    []float64
	iters   int // round cap
	rounds  int // rounds the last run executed
	tmaxDeg int
}

const (
	prDamping  = 0.85
	prTol      = 1e-9 // per-vertex |delta| under which a vertex counts converged
	prMaxIters = 20
	// prBlock is the dangling-fold block size. pr keeps its own fold —
	// fixed blocks, then one sequential fold over the partials, the
	// same order core.ReduceBlocks fixes by n — because the fold is a
	// declared Block site, and moving it would change the census.
	prBlock = 1024
)

func newPR[A graph.Adjacency](g, tg A) *prInstance[A] {
	n := int(g.NumVertices())
	return &prInstance[A]{
		g:       g,
		tg:      tg,
		rank:    make([]float64, n),
		next:    make([]float64, n),
		contrib: make([]float64, n),
		part:    make([]float64, (n+prBlock-1)/prBlock),
		iters:   prMaxIters,
		tmaxDeg: int(tg.MaxDegree()),
	}
}

func (p *prInstance[A]) reset() {
	inv := 1.0 / float64(len(p.rank))
	for i := range p.rank {
		p.rank[i] = inv
	}
}

func (p *prInstance[A]) runLibrary(w *core.Worker) {
	n := int(p.g.NumVertices())
	inv := 1.0 / float64(n)
	base := (1 - prDamping) * inv
	p.rounds = 0
	for it := 0; it < p.iters; it++ {
		// Out-contributions: owner write per vertex.
		core.ForRange(w, 0, n, 0, func(v int) {
			if d := p.g.Degree(int32(v)); d > 0 {
				p.contrib[v] = p.rank[v] / float64(d)
			} else {
				p.contrib[v] = 0
			}
		})
		// Dangling mass, deterministic two-level fold: each task owns
		// one fixed prBlock-wide partial, then one thread folds the
		// partial array in index order.
		core.ForRange(w, 0, len(p.part), 0, func(b int) {
			lo, hi := b*prBlock, (b+1)*prBlock
			if hi > n {
				hi = n
			}
			var s float64
			for v := lo; v < hi; v++ {
				if p.g.Degree(int32(v)) == 0 {
					s += p.rank[v]
				}
			}
			p.part[b] = s
		})
		var dangling float64
		for _, s := range p.part {
			dangling += s
		}
		add := base + prDamping*dangling*inv
		// Pull gather over the transpose, arena scratch per chunk.
		var moved atomic.Int64
		gather := func(ww *core.Worker, lo, hi int) {
			a := arena.Of(ww)
			am := a.Mark()
			buf := arena.AllocUninit[int32](a, p.tmaxDeg)
			var m int64
			for v := lo; v < hi; v++ {
				var s float64
				for _, u := range p.tg.RowInto(int32(v), buf) {
					s += p.contrib[u]
				}
				nv := add + prDamping*s
				p.next[v] = nv
				if d := nv - p.rank[v]; d > prTol || d < -prTol {
					m++
				}
			}
			a.Release(am)
			if m > 0 {
				moved.Add(m)
			}
		}
		w.For(0, n, 0, gather)
		p.rank, p.next = p.next, p.rank
		p.rounds++
		if moved.Load() == 0 {
			break
		}
	}
}

// runDirect is the hand-rolled baseline: the same round structure on
// statically chunked goroutines with per-goroutine gather buffers.
func (p *prInstance[A]) runDirect(nThreads int) {
	n := int(p.g.NumVertices())
	inv := 1.0 / float64(n)
	base := (1 - prDamping) * inv
	p.rounds = 0
	for it := 0; it < p.iters; it++ {
		directFor(nThreads, n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if d := p.g.Degree(int32(v)); d > 0 {
					p.contrib[v] = p.rank[v] / float64(d)
				} else {
					p.contrib[v] = 0
				}
			}
		})
		directFor(nThreads, len(p.part), func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				lo, hi := b*prBlock, (b+1)*prBlock
				if hi > n {
					hi = n
				}
				var s float64
				for v := lo; v < hi; v++ {
					if p.g.Degree(int32(v)) == 0 {
						s += p.rank[v]
					}
				}
				p.part[b] = s
			}
		})
		var dangling float64
		for _, s := range p.part {
			dangling += s
		}
		add := base + prDamping*dangling*inv
		var moved atomic.Int64
		directFor(nThreads, n, func(lo, hi int) {
			buf := make([]int32, p.tmaxDeg)
			var m int64
			for v := lo; v < hi; v++ {
				var s float64
				for _, u := range p.tg.RowInto(int32(v), buf) {
					s += p.contrib[u]
				}
				nv := add + prDamping*s
				p.next[v] = nv
				if d := nv - p.rank[v]; d > prTol || d < -prTol {
					m++
				}
			}
			if m > 0 {
				moved.Add(m)
			}
		})
		p.rank, p.next = p.next, p.rank
		p.rounds++
		if moved.Load() == 0 {
			break
		}
	}
}

func (p *prInstance[A]) verify() error {
	for v := range p.rank {
		if p.rank[v] != p.want[v] {
			return fmt.Errorf("pr: rank[%d] = %g, want %g", v, p.rank[v], p.want[v])
		}
	}
	return nil
}

// stat returns the round count the last run executed — identical
// convergence across variants is part of the determinism claim.
func (p *prInstance[A]) stat() int64 { return int64(p.rounds) }

// prOracle runs the identical blocked arithmetic sequentially. Byte
// equality with the parallel kernels is the verification contract, so
// the fold shape here mirrors runLibrary exactly.
func prOracle[A graph.Adjacency](g, tg A, iters int) []float64 {
	n := int(g.NumVertices())
	inv := 1.0 / float64(n)
	base := (1 - prDamping) * inv
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	part := make([]float64, (n+prBlock-1)/prBlock)
	buf := make([]int32, tg.MaxDegree())
	for v := range rank {
		rank[v] = inv
	}
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			if d := g.Degree(int32(v)); d > 0 {
				contrib[v] = rank[v] / float64(d)
			} else {
				contrib[v] = 0
			}
		}
		for b := range part {
			lo, hi := b*prBlock, (b+1)*prBlock
			if hi > n {
				hi = n
			}
			var s float64
			for v := lo; v < hi; v++ {
				if g.Degree(int32(v)) == 0 {
					s += rank[v]
				}
			}
			part[b] = s
		}
		var dangling float64
		for _, s := range part {
			dangling += s
		}
		add := base + prDamping*dangling*inv
		var moved int64
		for v := 0; v < n; v++ {
			var s float64
			for _, u := range tg.RowInto(int32(v), buf) {
				s += contrib[u]
			}
			nv := add + prDamping*s
			next[v] = nv
			if d := nv - rank[v]; d > prTol || d < -prTol {
				moved++
			}
		}
		rank, next = next, rank
		if moved == 0 {
			break
		}
	}
	return rank
}

func init() {
	core.DeclareSite("pr", "contrib: own rank-over-degree write", core.Stride)
	core.DeclareSite("pr", "dangling: block-owner partial fold", core.Block)
	core.DeclareSite("pr", "pull: in-neighbor contrib gather", core.RO)
	core.DeclareSite("pr", "pull: own rank store + moved fetch-add", core.AW)

	Register(Spec{
		Name:   "pr",
		Long:   "pagerank pull",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			// Sorted rows: the gather order is part of the float64
			// determinism contract. The symmetrized inputs are their
			// own transpose, so the forward graph serves both roles.
			g := graph.LoadUndirectedSorted(nil, input, scale, 0x9a6)
			p := newPR(g, g)
			p.want = prOracle(g, g, prMaxIters)
			return &Instance{
				RunLibrary: p.runLibrary,
				RunDirect:  p.runDirect,
				Verify:     p.verify,
				Reset:      p.reset,
				Stat:       p.stat,
			}
		},
	})
}
