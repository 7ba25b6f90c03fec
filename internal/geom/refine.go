package geom

import (
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// Delaunay refinement (the dr benchmark): repeatedly insert the
// circumcenters of "skinny" triangles (radius-edge ratio above bound)
// until none remain. The parallel version uses PBBS-style deterministic
// reservations — the arbitrary-read-write (AW) pattern of the paper's
// Sec 5.2: candidates race to reserve the triangles they would modify
// via priority writes (WriteMin), winners commit disjoint cavities in
// parallel, losers retry next round.

// RefineOptions controls refinement.
type RefineOptions struct {
	// Bound is the radius-edge-ratio threshold; triangles above it are
	// refined. Ruppert's classic bound is sqrt(2).
	Bound float64
	// MaxSteiner caps the number of inserted circumcenters.
	MaxSteiner int
	// MaxCavity skips candidates whose cavity exceeds this size.
	MaxCavity int
	// BatchSize bounds candidates attempted per parallel round.
	BatchSize int
}

// DefaultRefineOptions returns the options used by the dr benchmark.
func DefaultRefineOptions(nPoints int) RefineOptions {
	return RefineOptions{
		Bound:      1.5,
		MaxSteiner: 4*nPoints + 256,
		MaxCavity:  64,
		BatchSize:  4096,
	}
}

// skinny reports whether live triangle t needs refinement: it must not
// touch the super-triangle and its radius-edge ratio must exceed bound.
func (m *Mesh) skinny(t int32, bound float64) bool {
	tr := &m.Tris[t]
	if tr.Dead || m.SuperVertex(tr.V[0]) || m.SuperVertex(tr.V[1]) || m.SuperVertex(tr.V[2]) {
		return false
	}
	a, b, c := m.TriPoints(t)
	return RadiusEdgeRatio(a, b, c) > bound
}

// RefineSequential refines the mesh one circumcenter at a time and
// returns the number of Steiner points inserted. It is both the oracle
// and the 1-thread baseline. A worklist seeded with the current skinny
// triangles (and fed with triangles created by each insertion) avoids
// rescanning the whole mesh per step.
func (m *Mesh) RefineSequential(opt RefineOptions) int {
	var work []int32
	for t := int32(0); t < m.TriCount(); t++ {
		if m.skinny(t, opt.Bound) {
			work = append(work, t)
		}
	}
	inserted := 0
	for len(work) > 0 && inserted < opt.MaxSteiner {
		bad := work[len(work)-1]
		work = work[:len(work)-1]
		if !m.skinny(bad, opt.Bound) {
			continue
		}
		a, b, c := m.TriPoints(bad)
		cc := Circumcenter(a, b, c)
		if !insertable(cc) {
			continue
		}
		loc := m.Locate(cc, bad)
		if loc == NoTri {
			continue
		}
		if dup := &m.Tris[loc]; m.Pts[dup.V[0]] == cc || m.Pts[dup.V[1]] == cc || m.Pts[dup.V[2]] == cc {
			continue
		}
		cav, ok := m.Cavity(cc, loc, 1<<20)
		if !ok {
			continue
		}
		if int(m.PointCount()) >= len(m.Pts) {
			return inserted // Steiner budget exhausted
		}
		pIdx := m.AllocPointParallel(cc)
		m.EnsureTriCapacity(3*len(cav) + 8)
		before := m.TriCount()
		m.InsertWithCavity(pIdx, cav, m.allocSeq)
		inserted++
		for t := before; t < m.TriCount(); t++ {
			if m.skinny(t, opt.Bound) {
				work = append(work, t)
			}
		}
	}
	return inserted
}

func insertable(p Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

// RefineStats reports what a parallel refinement did.
type RefineStats struct {
	Inserted  int // Steiner points committed
	Rounds    int // parallel rounds executed
	Conflicts int // candidates that lost a reservation race
}

// noCandidate is the reservation value meaning "unreserved".
const noCandidate = ^uint32(0)

// RefineParallel refines the mesh with rounds of speculative parallel
// insertions. Each round: (1) collect skinny triangles; (2) each
// candidate — in parallel — locates its circumcenter, computes the
// cavity, and reserves every triangle it would touch with a WriteMin on
// the per-triangle reservation word; (3) candidates that hold all their
// reservations commit their cavities in parallel (provably disjoint);
// (4) losers retry in a later round.
func (m *Mesh) RefineParallel(w *core.Worker, opt RefineOptions) RefineStats {
	var stats RefineStats
	reserve := make([]atomic.Uint32, cap(m.Tris))
	core.ForRange(w, 0, len(reserve), 0, func(i int) {
		reserve[i].Store(noCandidate)
	})
	// The worklist holds candidate triangle ids: seeded with all current
	// skinny triangles, then fed per round with losers and freshly
	// created triangles, so rounds cost O(|worklist|), not O(|mesh|).
	work := core.PackIndex(w, int(m.TriCount()), func(t int) bool {
		return m.skinny(int32(t), opt.Bound)
	})
	for {
		if stats.Inserted >= opt.MaxSteiner {
			return stats
		}
		// (1) Re-validate the worklist (RO + pack): committed cavities
		// kill or fix many queued triangles.
		prev := work
		keep := core.PackIndex(w, len(prev), func(i int) bool {
			return m.skinny(prev[i], opt.Bound)
		})
		cand := make([]int32, len(keep))
		core.ForRange(w, 0, len(keep), 0, func(i int) {
			cand[i] = prev[keep[i]]
		})
		if len(cand) == 0 {
			return stats
		}
		badIdx := cand
		if len(badIdx) > opt.BatchSize {
			badIdx = badIdx[:opt.BatchSize]
		}
		if stats.Inserted+len(badIdx) > opt.MaxSteiner {
			badIdx = badIdx[:opt.MaxSteiner-stats.Inserted]
		}
		// Respect the mesh's Steiner point budget.
		if room := len(m.Pts) - int(m.PointCount()); len(badIdx) > room {
			if room <= 0 {
				return stats
			}
			badIdx = badIdx[:room]
		}
		stats.Rounds++
		// Room for commits: every candidate may create up to
		// MaxCavity+2 triangles. Grow the reservation array alongside;
		// a grown (or initial) array is bulk-initialized once, and from
		// then on only touched slots are reset (end of each round), so
		// round cost stays proportional to the batch, not the mesh.
		m.EnsureTriCapacity(len(badIdx)*(opt.MaxCavity+2) + 8)
		if len(reserve) < len(m.Tris) {
			grown := make([]atomic.Uint32, len(m.Tris)+len(m.Tris)/2)
			core.ForRange(w, 0, len(grown), 0, func(i int) {
				grown[i].Store(noCandidate)
			})
			reserve = grown
		}

		// (2) Speculate and reserve.
		type plan struct {
			cavity []int32
			center Point
			ok     bool
		}
		plans := make([]plan, len(badIdx))
		core.ForRange(w, 0, len(badIdx), 1, func(ci int) {
			t := int32(badIdx[ci])
			a, b, c := m.TriPoints(t)
			cc := Circumcenter(a, b, c)
			if !insertable(cc) {
				return
			}
			loc := m.Locate(cc, t)
			if loc == NoTri {
				return
			}
			cav, ok := m.Cavity(cc, loc, opt.MaxCavity)
			if !ok {
				return
			}
			// Reserve the cavity and its outside neighbors with the
			// candidate's priority (its index; lower wins).
			pri := uint32(ci)
			for _, ct := range cav {
				core.WriteMin32(&reserve[ct], pri)
				for _, nb := range m.Tris[ct].N {
					if nb != NoTri && !m.Tris[nb].Dead {
						core.WriteMin32(&reserve[nb], pri)
					}
				}
			}
			plans[ci] = plan{cavity: cav, center: cc, ok: true}
		})

		// (3) Winners commit. A candidate wins when it still holds every
		// reservation it needs.
		cursorBefore := m.TriCount()
		var inserted, conflicts atomic.Int64
		core.ForRange(w, 0, len(badIdx), 1, func(ci int) {
			pl := &plans[ci]
			if !pl.ok {
				return
			}
			pri := uint32(ci)
			for _, ct := range pl.cavity {
				if reserve[ct].Load() != pri {
					conflicts.Add(1)
					return
				}
				for _, nb := range m.Tris[ct].N {
					if nb != NoTri && !m.Tris[nb].Dead && reserve[nb].Load() != pri {
						conflicts.Add(1)
						return
					}
				}
			}
			pIdx := m.AllocPointParallel(pl.center)                 //lint:scared unique handout: ptCursor.Add gives each caller its own slot of m.Pts
			m.InsertWithCavity(pIdx, pl.cavity, m.AllocTriParallel) //lint:scared deterministic reservations: this candidate holds reserve[t] == pri for every cavity triangle and outside neighbor (checked above), which is all InsertWithCavity writes besides fresh slots from the atomic triangle cursor
			inserted.Add(1)
		})
		stats.Inserted += int(inserted.Load())
		stats.Conflicts += int(conflicts.Load())
		if inserted.Load() == 0 && conflicts.Load() == 0 && len(badIdx) == len(cand) {
			// Every remaining candidate failed structurally (not by a
			// reservation race): nothing will change next round either.
			return stats
		}
		// Reset the reservations this round touched (plans' cavities and
		// their neighbors, plus freshly created triangles — which start
		// at the zero value, not noCandidate).
		core.ForRange(w, 0, len(badIdx), 1, func(ci int) {
			pl := &plans[ci]
			if !pl.ok {
				return
			}
			for _, ct := range pl.cavity {
				reserve[ct].Store(noCandidate)
				for _, nb := range m.Tris[ct].N {
					if nb != NoTri {
						reserve[nb].Store(noCandidate)
					}
				}
			}
		})
		cursorAfter := m.TriCount()
		core.ForRange(w, int(cursorBefore), int(cursorAfter), 0, func(t int) {
			reserve[t].Store(noCandidate)
		})
		// Next round's worklist: all surviving candidates (winners died
		// and will be filtered) plus the triangles created this round.
		work = cand
		for t := cursorBefore; t < cursorAfter; t++ {
			work = append(work, t)
		}
	}
}

// SkinnyCount returns the number of live skinny triangles (RO).
func (m *Mesh) SkinnyCount(w *core.Worker, bound float64) int {
	n := int(m.TriCount())
	return int(core.MapReduce(w, n, int64(0), func(t int) int64 {
		if m.skinny(int32(t), bound) {
			return 1
		}
		return 0
	}, func(a, b int64) int64 { return a + b }))
}
