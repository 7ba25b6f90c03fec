package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seqgen"
)

var testPool *core.Pool

func on(f func(w *core.Worker)) { testPool.Do(f) }

func TestOrient2D(t *testing.T) {
	a, b := pt(0, 0), pt(1, 0)
	if Orient2D(a, b, pt(0, 1)) <= 0 {
		t.Fatal("left point should be positive")
	}
	if Orient2D(a, b, pt(0, -1)) >= 0 {
		t.Fatal("right point should be negative")
	}
	if Orient2D(a, b, pt(2, 0)) != 0 {
		t.Fatal("collinear point should be zero")
	}
}

func TestInCircle(t *testing.T) {
	// CCW unit triangle on the unit circle.
	a := pt(1, 0)
	b := pt(0, 1)
	c := pt(-1, 0)
	if InCircle(a, b, c, pt(0, 0)) <= 0 {
		t.Fatal("center should be inside")
	}
	if InCircle(a, b, c, pt(2, 2)) >= 0 {
		t.Fatal("far point should be outside")
	}
	if v := InCircle(a, b, c, pt(0, -1)); math.Abs(v) > 1e-9 {
		t.Fatalf("cocircular point should be ~0, got %v", v)
	}
}

func TestCircumcenterEquidistantProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int8) bool {
		a := pt(float64(ax), float64(ay))
		b := pt(float64(bx), float64(by))
		c := pt(float64(cx), float64(cy))
		if math.Abs(Orient2D(a, b, c)) < 1e-9 {
			return true // degenerate: skip
		}
		cc := Circumcenter(a, b, c)
		da, db, dc := dist(cc, a), dist(cc, b), dist(cc, c)
		tol := 1e-6 * (1 + da)
		return math.Abs(da-db) < tol && math.Abs(da-dc) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRadiusEdgeRatio(t *testing.T) {
	// Equilateral triangle: ratio = 1/sqrt(3) ~ 0.577.
	a := pt(0, 0)
	b := pt(1, 0)
	c := pt(0.5, math.Sqrt(3)/2)
	if r := RadiusEdgeRatio(a, b, c); math.Abs(r-1/math.Sqrt(3)) > 1e-9 {
		t.Fatalf("equilateral ratio = %v", r)
	}
	// A sliver must have a huge ratio.
	if r := RadiusEdgeRatio(pt(0, 0), pt(1, 0), pt(0.5, 0.001)); r < 10 {
		t.Fatalf("sliver ratio = %v, want large", r)
	}
	if r := RadiusEdgeRatio(pt(0, 0), pt(0, 0), pt(1, 0)); !math.IsInf(r, 1) {
		t.Fatalf("degenerate ratio = %v, want +Inf", r)
	}
}

func triangulated(pts []Point, extra int) *Mesh {
	maxR := 1.0
	for _, p := range pts {
		if r := math.Hypot(p.X, p.Y); r > maxR {
			maxR = r
		}
	}
	m := NewMesh(pts, extra, maxR+1)
	m.Triangulate()
	return m
}

func TestTriangulateSquare(t *testing.T) {
	pts := []Point{pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}
	m := triangulated(pts, 0)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	if live := m.LiveTriangles(false); len(live) != 2 {
		t.Fatalf("square should triangulate into 2 triangles, got %d", len(live))
	}
}

func TestTriangulateDuplicatePoints(t *testing.T) {
	pts := []Point{pt(0, 0), pt(1, 0), pt(0, 1), pt(0, 0), pt(1, 0)}
	m := triangulated(pts, 0)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if live := m.LiveTriangles(false); len(live) != 1 {
		t.Fatalf("3 distinct points = 1 triangle, got %d", len(live))
	}
}

func TestTriangulateRandomDelaunayProperty(t *testing.T) {
	pts := seqgen.KuzminPoints(nil, 300, 3)
	m := triangulated(pts, 0)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
	// Euler: a triangulation of n points has at most 2n triangles.
	if live := m.LiveTriangles(true); len(live) > 2*(len(pts)+3) {
		t.Fatalf("too many live triangles: %d", len(live))
	}
}

func TestTriangulatePropertyRandomSets(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 3
		pts := seqgen.KuzminPoints(nil, n, seed)
		m := triangulated(pts, 0)
		return m.CheckInvariants() == nil && m.CheckDelaunay() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLocate(t *testing.T) {
	pts := []Point{pt(0, 0), pt(2, 0), pt(0, 2), pt(2, 2)}
	m := triangulated(pts, 0)
	target := pt(0.5, 0.5)
	loc := m.Locate(target, 0)
	if loc == NoTri {
		t.Fatal("locate failed")
	}
	if !m.Contains(loc, target) {
		t.Fatal("located triangle does not contain point")
	}
	// A point far outside the super-triangle cannot be located.
	if m.Locate(pt(1e9, 1e9), 0) != NoTri {
		t.Fatal("locate should fail outside the super-triangle")
	}
}

func TestRefineSequentialEliminatesSkinny(t *testing.T) {
	pts := seqgen.KuzminPoints(nil, 200, 5)
	opt := DefaultRefineOptions(len(pts))
	m := NewMesh(pts, opt.MaxSteiner+8, 1e6)
	m.Triangulate()
	before := m.SkinnyCount(nil, opt.Bound)
	if before == 0 {
		t.Skip("input produced no skinny triangles")
	}
	inserted := m.RefineSequential(opt)
	if inserted == 0 {
		t.Fatal("refinement inserted nothing despite skinny triangles")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Non-exact arithmetic can strand a few borderline slivers whose
	// cavity search disconnects numerically; anything beyond a handful
	// indicates a real bug.
	after := m.SkinnyCount(nil, opt.Bound)
	if inserted < opt.MaxSteiner && after > 3 {
		t.Fatalf("refinement finished with %d skinny triangles left", after)
	}
}

func TestRefineParallelEliminatesSkinny(t *testing.T) {
	pts := seqgen.KuzminPoints(nil, 200, 5)
	opt := DefaultRefineOptions(len(pts))
	m := NewMesh(pts, opt.MaxSteiner+8, 1e6)
	m.Triangulate()
	var stats RefineStats
	on(func(w *core.Worker) { stats = m.RefineParallel(w, opt) })
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if stats.Inserted < opt.MaxSteiner {
		var left int
		on(func(w *core.Worker) { left = m.SkinnyCount(w, opt.Bound) })
		if left > 3 {
			t.Fatalf("parallel refinement left %d skinny triangles (stats %+v)", left, stats)
		}
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestRefineParallelMatchesSequentialQuality(t *testing.T) {
	// Both must reach (near-)zero skinny triangles; the meshes differ
	// but the post-condition is the same. A residual of a few borderline
	// slivers is a float-precision artifact, not a scheduling bug.
	for _, seed := range []uint64{1, 2} {
		pts := seqgen.KuzminPoints(nil, 100, seed)
		opt := DefaultRefineOptions(len(pts))

		ms := NewMesh(pts, opt.MaxSteiner+8, 1e6)
		ms.Triangulate()
		ms.RefineSequential(opt)

		mp := NewMesh(pts, opt.MaxSteiner+8, 1e6)
		mp.Triangulate()
		on(func(w *core.Worker) { mp.RefineParallel(w, opt) })

		if got := ms.SkinnyCount(nil, opt.Bound); got > 3 {
			t.Fatalf("seed %d: sequential left %d skinny", seed, got)
		}
		if got := mp.SkinnyCount(nil, opt.Bound); got > 3 {
			t.Fatalf("seed %d: parallel left %d skinny", seed, got)
		}
		if err := mp.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMeshAllocGuards(t *testing.T) {
	m := NewMesh([]Point{pt(0, 0), pt(1, 0), pt(0, 1)}, 0, 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected point-exhaustion panic")
			}
		}()
		m.AllocPointParallel(pt(5, 5))
	}()
}

func TestSuperVertexClassification(t *testing.T) {
	m := NewMesh([]Point{pt(0, 0), pt(1, 0), pt(0, 1)}, 2, 10)
	if m.SuperVertex(0) || m.SuperVertex(2) {
		t.Fatal("input vertices misclassified")
	}
	if !m.SuperVertex(3) || !m.SuperVertex(4) || !m.SuperVertex(5) {
		t.Fatal("super vertices misclassified")
	}
	if m.SuperVertex(6) {
		t.Fatal("steiner slot misclassified")
	}
}

// pt builds a Point without tripping vet's unkeyed-literal check for
// the aliased seqgen.Point type.
func pt(x, y float64) Point { return Point{X: x, Y: y} }

func TestMinAngleDeg(t *testing.T) {
	// Equilateral: 60 degrees everywhere.
	if a := minAngleDeg(pt(0, 0), pt(1, 0), pt(0.5, math.Sqrt(3)/2)); math.Abs(a-60) > 1e-9 {
		t.Fatalf("equilateral min angle = %v", a)
	}
	// Right isoceles: 45.
	if a := minAngleDeg(pt(0, 0), pt(1, 0), pt(0, 1)); math.Abs(a-45) > 1e-9 {
		t.Fatalf("right isoceles min angle = %v", a)
	}
	// Degenerate: 0.
	if a := minAngleDeg(pt(0, 0), pt(1, 0), pt(2, 0)); a > 1e-6 {
		t.Fatalf("degenerate min angle = %v", a)
	}
}

func TestQualityImprovesWithRefinement(t *testing.T) {
	pts := seqgen.KuzminPoints(nil, 300, 9)
	opt := DefaultRefineOptions(len(pts))
	m := NewMesh(pts, opt.MaxSteiner+8, 1e6)
	m.Triangulate()
	var before, after QualityStats
	on(func(w *core.Worker) {
		before = m.Quality(w, opt.Bound)
		m.RefineParallel(w, opt)
		after = m.Quality(w, opt.Bound)
	})
	if before.Triangles == 0 || after.Triangles <= before.Triangles {
		t.Fatalf("refinement should add triangles: %d -> %d", before.Triangles, after.Triangles)
	}
	if after.SkinnyAtBound > before.SkinnyAtBound {
		t.Fatalf("skinny count rose: %d -> %d", before.SkinnyAtBound, after.SkinnyAtBound)
	}
	if after.MeanMinAngle <= before.MeanMinAngle {
		t.Fatalf("mean min angle did not improve: %.2f -> %.2f", before.MeanMinAngle, after.MeanMinAngle)
	}
	// Ruppert: bound B guarantees min angle >= arcsin(1/(2B)) for the
	// triangles the refinement could fix (residual slivers aside).
	if after.SkinnyAtBound <= 3 && after.MeanMinAngle < 20 {
		t.Fatalf("refined mesh suspiciously poor: %v", after)
	}
	if after.String() == "" {
		t.Fatal("empty quality string")
	}
}

func TestQualityEmptyMesh(t *testing.T) {
	m := NewMesh(nil, 0, 10)
	q := m.Quality(nil, 1.5)
	if q.Triangles != 0 || q.SkinnyAtBound != 0 {
		t.Fatalf("empty mesh quality: %+v", q)
	}
}

func TestLocateWithDeadHint(t *testing.T) {
	pts := seqgen.KuzminPoints(nil, 50, 13)
	m := triangulated(pts, 8)
	// Kill a triangle by inserting a point into it, then locate using
	// the dead id as the hint: Locate must recover via anyLive.
	target := pt(0.01, 0.01)
	loc := m.Locate(target, 0)
	if loc == NoTri {
		t.Skip("target outside mesh")
	}
	cav, _ := m.cavityInto(nil, target, loc, 1<<10)
	pIdx := m.AllocPointParallel(target)
	m.EnsureTriCapacity(3*len(cav) + 8)
	m.InsertWithCavity(pIdx, cav, func() int32 { return m.AllocTriParallel() })
	if !m.Tris[loc].Dead {
		t.Skip("hint still alive")
	}
	got := m.Locate(target, loc)
	if got == NoTri || m.Tris[got].Dead {
		t.Fatal("Locate failed with dead hint")
	}
}

func TestContainsBoundary(t *testing.T) {
	pts := []Point{pt(0, 0), pt(2, 0), pt(0, 2)}
	m := triangulated(pts, 0)
	live := m.LiveTriangles(false)
	if len(live) != 1 {
		t.Fatalf("live = %v", live)
	}
	tri := live[0]
	if !m.Contains(tri, pt(0.5, 0.5)) {
		t.Error("interior point not contained")
	}
	if !m.Contains(tri, pt(1, 0)) {
		t.Error("edge point not contained")
	}
	if m.Contains(tri, pt(3, 3)) {
		t.Error("exterior point contained")
	}
}

func BenchmarkRefineParallel(b *testing.B) {
	pts := seqgen.KuzminPoints(nil, 1000, 1)
	opt := DefaultRefineOptions(len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMesh(pts, opt.MaxSteiner+8, 1e6)
		m.Triangulate()
		on(func(w *core.Worker) { m.RefineParallel(w, opt) })
	}
}
