package geom

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/seqgen"
)

// kuzminMesh triangulates the dr benchmark's point set at n points.
func kuzminMesh(n int) (*Mesh, RefineOptions) {
	pts := seqgen.KuzminPoints(nil, n, 0xd3)
	opt := DefaultRefineOptions(len(pts))
	return triangulated(pts, opt.MaxSteiner+8), opt
}

// TestRefineParallelNilWorkerMatchesPool: the nil worker runs the same
// rounds sequentially, so a one-worker pool and no pool at all insert
// the same points into the same triangle slots.
func TestRefineParallelNilWorkerMatchesPool(t *testing.T) {
	for _, n := range []int{300, 2000} {
		seq, opt := kuzminMesh(n)
		seqStats := seq.RefineParallel(nil, opt)

		par, _ := kuzminMesh(n)
		var parStats RefineStats
		pool := core.NewPool(1)
		pool.Do(func(w *core.Worker) { parStats = par.RefineParallel(w, opt) })
		pool.Close()

		if seqStats != parStats {
			t.Errorf("n=%d: nil worker %+v, one-worker pool %+v", n, seqStats, parStats)
		}
		if seqStats.Inserted == 0 {
			t.Errorf("n=%d: nothing inserted", n)
		}
		if !slices.Equal(seq.Tris[:seq.TriCount()], par.Tris[:par.TriCount()]) {
			t.Errorf("n=%d: triangles differ", n)
		}
		if !slices.Equal(seq.Pts[:seq.PointCount()], par.Pts[:par.PointCount()]) {
			t.Errorf("n=%d: points differ", n)
		}
		if err := seq.CheckInvariants(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestInsertWideCavitySpillsToHeap inserts the center of a ring of
// nearly cocircular points last: its cavity is every triangle inside
// the ring, whose boundary is longer than InsertWithCavity's stack
// arrays, so the heap fallback runs.
func TestInsertWideCavitySpillsToHeap(t *testing.T) {
	const ring = 3 * fanStack / 2
	pts := make([]Point, 0, ring+1)
	for i := 0; i < ring; i++ {
		a := 2 * math.Pi * float64(i) / ring
		pts = append(pts, pt(math.Cos(a), math.Sin(a)))
	}
	m := NewMesh(append(pts, pt(0, 0)), 0, 2)
	for i := 0; i < ring; i++ {
		m.InsertPoint(int32(i), 0)
	}
	before := m.TriCount()
	if _, ok := m.InsertPoint(ring, 0); !ok {
		t.Fatal("center not inserted")
	}
	if fan := m.TriCount() - before; fan <= fanStack {
		t.Fatalf("center's fan has %d triangles, want more than %d", fan, fanStack)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
}

// TestRefineParallelSteadyStateAllocs: a warmed run on a one-worker
// pool takes its scratch from the worker's arena, so what it allocates
// is its loop bodies, built once per run, and the variables they
// share — 14 at ScaleSmall's 2,000 points, where one run inserts 1,465
// points over 37 rounds. The mesh is rebuilt outside the count.
func TestRefineParallelSteadyStateAllocs(t *testing.T) {
	const ceiling = 14
	pool := core.NewPool(1)
	defer pool.Close()
	got := ^uint64(0)
	pool.Do(func(w *core.Worker) {
		var ms runtime.MemStats
		for round := 0; round < 4; round++ {
			m, opt := kuzminMesh(2000)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			stats := m.RefineParallel(w, opt)
			runtime.ReadMemStats(&ms)
			if round > 0 {
				got = min(got, ms.Mallocs-before)
			}
			if stats.Inserted == 0 {
				t.Error("nothing inserted")
			}
		}
	})
	if got > ceiling {
		t.Errorf("%d allocs per warmed RefineParallel run, want at most %d", got, ceiling)
	}
}

// FuzzTriangulate builds small point sets out of grid points,
// duplicates, collinear runs and rings of cocircular points,
// triangulates them, refines the mesh on a two-worker pool, and checks
// the mesh's structure after each step.
func FuzzTriangulate(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 9, 1, 0, 12, 12, 1, 0})
	f.Add([]byte{2, 5, 6, 0, 1, 1, 2, 3, 3})
	f.Add([]byte{3, 8, 12, 3, 3, 12, 0, 8, 8})
	f.Add([]byte{3, 31, 15, 1, 5, 2, 7, 9, 0, 0, 0})
	// Rings and a run that refine until the Steiner cap cuts the last
	// batch to one candidate that cannot be inserted: the round loop
	// once retried that batch forever.
	f.Add([]byte("c00020001'"))
	// A ring centered on a point of a run: the ring's circumcenters land
	// exactly on that point, which the parallel rounds once inserted a
	// second time, building triangles that are not counterclockwise.
	f.Add([]byte("20001'"))
	// Duplicates and two points 6e-17 apart: round-off leaves the mesh
	// non-Delaunay, and a circumcenter's cavity once held an edge the
	// center does not see.
	f.Add([]byte("000000000C000200000007CA"))
	pool := core.NewPool(2)
	defer pool.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := fuzzPoints(data)
		opt := DefaultRefineOptions(len(pts))
		m := NewMesh(pts, opt.MaxSteiner+8, 32)
		m.Triangulate()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("triangulated %v: %v", pts, err)
		}
		pool.Do(func(w *core.Worker) { m.RefineParallel(w, opt) })
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("refined %v: %v", pts, err)
		}
	})
}

// fuzzPoints decodes data into at most 64 points inside [-16, 16]²,
// one shape per opcode byte: a grid point, a duplicate of an earlier
// point, a run of collinear points, or a ring of cocircular points.
func fuzzPoints(data []byte) []Point {
	const maxPts = 64
	var pts []Point
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return float64(b%32) - 16
	}
	for len(data) > 0 && len(pts) < maxPts {
		op := data[0]
		data = data[1:]
		switch op % 4 {
		case 0: // grid point
			pts = append(pts, pt(next(), next()))
		case 1: // duplicate
			if len(pts) > 0 {
				pts = append(pts, pts[int(op/4)%len(pts)])
			}
		case 2: // collinear run from (x, y) in steps of (dx, dy)/4
			x, y, dx, dy := next(), next(), next()/4, next()/4
			for k := 0; k < 2+int(op/4)%8 && len(pts) < maxPts; k++ {
				pts = append(pts, pt(x+float64(k)*dx, y+float64(k)*dy))
			}
		case 3: // ring of radius r/2 around (x, y)
			r, x, y := math.Abs(next())/2+0.5, next()/2, next()/2
			k := 3 + int(op/4)%13
			for j := 0; j < k && len(pts) < maxPts; j++ {
				a := 2 * math.Pi * float64(j) / float64(k)
				pts = append(pts, pt(x+r*math.Cos(a), y+r*math.Sin(a)))
			}
		}
	}
	return pts
}
