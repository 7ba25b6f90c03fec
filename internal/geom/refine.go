package geom

import (
	"math"
	"sync/atomic"

	"repro/internal/arena"
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
		if loc == NoTri || m.atCorner(loc, cc) {
			continue
		}
		var cavStack [64]int32
		cav, ok := m.cavityInto(cavStack[:0], cc, loc, 1<<20)
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

// plan is one candidate's speculation. Its cavity is the first cavLen
// entries of the candidate's window of the run's cavity buffer, so a
// plan holds no pointer and the plans array is an arena checkout.
type plan struct {
	center Point
	cavLen int32
	ok     bool
}

// RefineParallel refines the mesh with rounds of speculative parallel
// insertions. Each round: (1) collect skinny triangles; (2) each
// candidate — in parallel — locates its circumcenter, computes the
// cavity, and reserves every triangle it would touch with a WriteMin on
// the per-triangle reservation word; (3) candidates that hold all their
// reservations commit their cavities in parallel (provably disjoint);
// (4) losers retry in a later round.
//
// The run's scratch is checked out of w's arena once (made, for a nil
// worker) and its loop bodies are built once, so a round allocates
// nothing: candidate ci carves its cavity into the window
// [ci*MaxCavity, (ci+1)*MaxCavity) of one buffer, and the worklist
// ping-pongs between two buffers as long as the triangle storage.
func (m *Mesh) RefineParallel(w *core.Worker, opt RefineOptions) RefineStats {
	var stats RefineStats
	ar := arena.Of(w)
	mark := ar.Mark()
	defer ar.Release(mark)
	// No round takes more candidates than the batch, the Steiner cap or
	// the point storage left allows. A cavity always holds its first
	// triangle, so a window is at least one long. The worklist holds
	// distinct triangle ids, so it never outgrows the triangle storage;
	// if that storage grows mid-run, the worklists' appends outgrow
	// their checkouts onto the heap.
	maxCav := max(opt.MaxCavity, 1)
	batch := max(0, min(opt.BatchSize, opt.MaxSteiner, len(m.Pts)-int(m.PointCount())))
	plans := arena.AllocUninit[plan](ar, batch)
	cavBuf := arena.AllocUninit[int32](ar, batch*maxCav)
	// The reservation words are filled with atomic stores, which the
	// lifetimes pass does not count as a fill: check them out zeroed.
	reserve := arena.Alloc[atomic.Uint32](ar, cap(m.Tris))
	work := arena.AllocUninit[int32](ar, cap(m.Tris))
	cand := arena.AllocUninit[int32](ar, cap(m.Tris))
	keep := arena.AllocUninit[int32](ar, cap(m.Tris))
	var badIdx []int32
	var inserted, conflicts atomic.Int64

	clearSlot := func(t int) {
		reserve[t].Store(noCandidate)
	}
	skinnyAt := func(t int) bool {
		return m.skinny(int32(t), opt.Bound)
	}
	stillSkinny := func(i int) bool {
		return m.skinny(work[i], opt.Bound)
	}
	gather := func(i int) {
		cand[i] = work[keep[i]]
	}
	// (2) Speculate and reserve.
	speculate := func(ci int) {
		plans[ci] = plan{}
		t := badIdx[ci]
		a, b, c := m.TriPoints(t)
		cc := Circumcenter(a, b, c)
		if !insertable(cc) {
			return
		}
		loc := m.Locate(cc, t)
		if loc == NoTri || m.atCorner(loc, cc) {
			return
		}
		cav, ok := m.cavityInto(cavBuf[ci*maxCav:ci*maxCav:(ci+1)*maxCav], cc, loc, maxCav)
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
		plans[ci] = plan{center: cc, cavLen: int32(len(cav)), ok: true}
	}
	// (3) Winners commit. A candidate wins when it still holds every
	// reservation it needs.
	commit := func(ci int) {
		pl := &plans[ci]
		if !pl.ok {
			return
		}
		cav := cavBuf[ci*maxCav : ci*maxCav+int(pl.cavLen)]
		pri := uint32(ci)
		for _, ct := range cav {
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
		pIdx := m.AllocPointParallel(pl.center)           //lint:scared unique handout: ptCursor.Add gives each caller its own slot of m.Pts
		m.InsertWithCavity(pIdx, cav, m.AllocTriParallel) //lint:scared deterministic reservations: this candidate holds reserve[t] == pri for every cavity triangle and outside neighbor (checked above), which is all InsertWithCavity writes besides fresh slots from the atomic triangle cursor
		inserted.Add(1)
	}
	// Reset the reservations a plan touched: its cavity and their
	// neighbors.
	unreserve := func(ci int) {
		pl := &plans[ci]
		if !pl.ok {
			return
		}
		for _, ct := range cavBuf[ci*maxCav : ci*maxCav+int(pl.cavLen)] {
			reserve[ct].Store(noCandidate)
			for _, nb := range m.Tris[ct].N {
				if nb != NoTri {
					reserve[nb].Store(noCandidate)
				}
			}
		}
	}

	core.ForRange(w, 0, len(reserve), 0, clearSlot)
	// The worklist holds candidate triangle ids: seeded with all current
	// skinny triangles, then fed per round with losers and freshly
	// created triangles, so rounds cost O(|worklist|), not O(|mesh|).
	work = core.PackIndexInto(w, int(m.TriCount()), skinnyAt, work)
	for {
		if stats.Inserted >= opt.MaxSteiner {
			return stats
		}
		// (1) Re-validate the worklist (RO + pack): committed cavities
		// kill or fix many queued triangles.
		keep = core.PackIndexInto(w, len(work), stillSkinny, keep)
		cand = core.EnsureLen(cand, len(keep))
		core.ForRange(w, 0, len(keep), 0, gather)
		if len(cand) == 0 {
			return stats
		}
		badIdx = cand
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
			reserve = arena.Alloc[atomic.Uint32](ar, len(m.Tris)+len(m.Tris)/2)
			core.ForRange(w, 0, len(reserve), 0, clearSlot)
		}

		core.ForRange(w, 0, len(badIdx), 1, speculate)
		cursorBefore := m.TriCount()
		inserted.Store(0)
		conflicts.Store(0)
		core.ForRange(w, 0, len(badIdx), 1, commit)
		stats.Inserted += int(inserted.Load())
		stats.Conflicts += int(conflicts.Load())
		if inserted.Load() == 0 && conflicts.Load() == 0 {
			// Every candidate of the batch failed structurally (not by a
			// reservation race) and the mesh did not change, so they
			// would fail again: the run ends, or, when candidates wait
			// behind a batch the caps cut short, the batch leaves the
			// worklist so the next round reaches them.
			if len(badIdx) == len(cand) {
				return stats
			}
			work, cand = cand[len(badIdx):], work
			continue
		}
		// Reset the reservations this round touched (plans' cavities and
		// their neighbors, plus freshly created triangles — which start
		// at the zero value, not noCandidate).
		core.ForRange(w, 0, len(badIdx), 1, unreserve)
		cursorAfter := m.TriCount()
		core.ForRange(w, int(cursorBefore), int(cursorAfter), 0, clearSlot)
		// Next round's worklist: all surviving candidates (winners died
		// and will be filtered) plus the triangles created this round.
		for t := cursorBefore; t < cursorAfter; t++ {
			cand = append(cand, t)
		}
		work, cand = cand, work
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
