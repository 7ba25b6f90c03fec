package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/seqgen"
)

// dr — Delaunay refinement (PBBS) on Kuzmin-distributed points. The
// initial triangulation is input preparation (untimed); the timed
// kernel is the speculative parallel refinement loop: skinny-triangle
// collection (RO + pack), cavity speculation (RO), reservation with
// priority writes, and disjoint parallel commits — the paper's richest
// mix of patterns, including RngInd-style disjoint region writes and AW
// reservations.

type drInstance struct {
	points []geom.Point
	opt    geom.RefineOptions
	radius float64
	mesh   *geom.Mesh // rebuilt on Reset, consumed by the run
	stats  geom.RefineStats
}

func (d *drInstance) build() {
	m := geom.NewMesh(d.points, d.opt.MaxSteiner+8, d.radius)
	m.Triangulate()
	d.mesh = m
}

func (d *drInstance) runLibrary(w *core.Worker) {
	d.stats = d.mesh.RefineParallel(w, d.opt)
}

func (d *drInstance) runDirect(nThreads int) {
	// dr's baseline shares the mesh engine (as PBBS's C++ variants share
	// theirs): the reservation loop on a dedicated pool of the requested
	// size, mirroring the paper's same-code-fewer-threads methodology,
	// and at one thread on a nil worker, sequentially, with no pool to
	// build. geom.RefineSequential remains the test oracle.
	if nThreads <= 1 {
		d.stats = d.mesh.RefineParallel(nil, d.opt)
		return
	}
	p := core.NewPool(nThreads)
	defer p.Close()
	p.Do(func(w *core.Worker) { d.stats = d.mesh.RefineParallel(w, d.opt) })
}

func (d *drInstance) verify() error {
	if err := d.mesh.CheckInvariants(); err != nil {
		return fmt.Errorf("dr: %w", err)
	}
	left := d.mesh.SkinnyCount(nil, d.opt.Bound)
	// A few borderline slivers may survive float-precision cavity
	// searches; wholesale failure to refine is a bug.
	if left > 8 && d.stats.Inserted < d.opt.MaxSteiner {
		return fmt.Errorf("dr: %d skinny triangles remain (inserted %d)", left, d.stats.Inserted)
	}
	return nil
}

func init() {
	core.DeclareSite("dr", "collect: triangle quality read", core.RO)
	core.DeclareSite("dr", "collect: bad-triangle pack write", core.Block)
	core.DeclareSite("dr", "speculate: mesh walk read", core.RO)
	core.DeclareSite("dr", "speculate: cavity incircle read", core.RO)
	core.DeclareSite("dr", "speculate: own plan write", core.Stride)
	core.DeclareSite("dr", "reserve: reservation reset write", core.Stride)
	core.DeclareSite("dr", "reserve: triangle WriteMin", core.AW)
	core.DeclareSite("dr", "commit: reservation read", core.AW)
	core.DeclareSite("dr", "commit: cavity region rewrite", core.RngInd)
	core.DeclareSite("dr", "commit: steiner point write (indirect)", core.SngInd)

	Register(Spec{
		Name:   "dr",
		Long:   "Delaunay refinement",
		Inputs: []string{"kuzmin"},
		Make: func(input string, scale Scale) *Instance {
			pts := seqgen.KuzminPoints(nil, PointCount(scale), 0xd3)
			maxR := 1.0
			for _, p := range pts {
				if r := math.Hypot(p.X, p.Y); r > maxR {
					maxR = r
				}
			}
			d := &drInstance{
				points: pts,
				opt:    geom.DefaultRefineOptions(len(pts)),
				radius: maxR + 1,
			}
			d.build()
			return &Instance{
				RunLibrary: d.runLibrary,
				RunDirect:  d.runDirect,
				Verify:     d.verify,
				Reset:      d.build,
			}
		},
	})
}
