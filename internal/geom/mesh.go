package geom

import (
	"fmt"
	"sync/atomic"
)

// NoTri marks the absence of a neighbor (convex-hull edges of the
// super-triangle).
const NoTri = int32(-1)

// Tri is one triangle: vertices V in counterclockwise order, and N[i]
// the neighbor across the edge opposite V[i] (the edge V[i+1]–V[i+2]).
type Tri struct {
	V     [3]int32
	N     [3]int32
	Dead  bool
	Fresh bool // set on triangles created by the most recent insertions
}

// Mesh is a triangulation under construction. Triangle slots are
// allocated monotonically (dead slots are not reused), which keeps
// parallel commits allocation-free: winners claim slots with an atomic
// cursor into preallocated storage.
type Mesh struct {
	Pts  []Point // input points, then 3 super-triangle vertices, then Steiner points
	Tris []Tri

	triCursor atomic.Int64 // next free triangle slot
	ptCursor  atomic.Int64 // next free point slot (for Steiner points)

	nInput int   // number of original input points
	super  int32 // index of first super-triangle vertex
}

// NewMesh prepares a mesh over pts with room for extraPts additional
// (Steiner) points, wrapped in a super-triangle that strictly contains
// every present and future point within radius superRadius.
func NewMesh(pts []Point, extraPts int, superRadius float64) *Mesh {
	n := len(pts)
	all := make([]Point, n, n+3+extraPts)
	copy(all, pts)
	// A triangle circumscribing the circle of radius superRadius.
	r := superRadius * 4
	all = append(all,
		Point{X: 0, Y: 2 * r},
		Point{X: -2 * r, Y: -r},
		Point{X: 2 * r, Y: -r},
	)
	all = all[:len(all)+extraPts]
	m := &Mesh{
		Pts:    all,
		nInput: n,
		super:  int32(n),
	}
	m.ptCursor.Store(int64(n + 3))
	// Triangle budget: each insertion nets +2 triangles but dead slots
	// linger; a generous multiplier avoids mid-build reallocation.
	m.Tris = make([]Tri, 0, 8*(n+extraPts)+16)
	t0 := m.allocSeq()
	m.Tris[t0] = Tri{
		V: [3]int32{m.super, m.super + 1, m.super + 2},
		N: [3]int32{NoTri, NoTri, NoTri},
	}
	return m
}

// SuperVertex reports whether vertex v belongs to the super-triangle.
func (m *Mesh) SuperVertex(v int32) bool {
	return v >= m.super && v < m.super+3
}

// TriCount returns the number of allocated triangle slots (alive+dead).
func (m *Mesh) TriCount() int32 { return int32(m.triCursor.Load()) }

// PointCount returns the number of points in use.
func (m *Mesh) PointCount() int32 { return int32(m.ptCursor.Load()) }

// allocSeq claims one triangle slot, growing storage (sequential use).
func (m *Mesh) allocSeq() int32 {
	id := int32(m.triCursor.Add(1) - 1)
	for int(id) >= len(m.Tris) {
		m.Tris = append(m.Tris, Tri{})
	}
	return id
}

// AllocTriParallel claims one triangle slot without growing storage; it
// panics if EnsureTriCapacity was not called with enough headroom.
func (m *Mesh) AllocTriParallel() int32 {
	id := int32(m.triCursor.Add(1) - 1)
	if int(id) >= len(m.Tris) {
		panic("geom.Mesh: triangle storage exhausted; call EnsureTriCapacity before the parallel phase")
	}
	return id
}

// EnsureTriCapacity grows triangle storage (sequentially) so that at
// least headroom slots beyond the cursor exist.
func (m *Mesh) EnsureTriCapacity(headroom int) {
	need := int(m.triCursor.Load()) + headroom
	for len(m.Tris) < need {
		m.Tris = append(m.Tris, Tri{})
	}
}

// AllocPointParallel claims a point slot for a Steiner point; it panics
// when the extraPts budget of NewMesh is exhausted.
func (m *Mesh) AllocPointParallel(p Point) int32 {
	id := int32(m.ptCursor.Add(1) - 1)
	if int(id) >= len(m.Pts) {
		panic("geom.Mesh: point storage exhausted; increase extraPts")
	}
	m.Pts[id] = p
	return id
}

// TriPoints returns the three corner points of triangle t.
func (m *Mesh) TriPoints(t int32) (Point, Point, Point) {
	tr := &m.Tris[t]
	return m.Pts[tr.V[0]], m.Pts[tr.V[1]], m.Pts[tr.V[2]]
}

// Contains reports whether p lies inside or on triangle t.
func (m *Mesh) Contains(t int32, p Point) bool {
	a, b, c := m.TriPoints(t)
	return Orient2D(a, b, p) >= 0 && Orient2D(b, c, p) >= 0 && Orient2D(c, a, p) >= 0
}

// Locate walks from hint toward p and returns a live triangle
// containing p, or NoTri if the walk escapes the triangulation (p
// outside the super-triangle). The walk reads only triangle data that
// is stable during a read phase.
func (m *Mesh) Locate(p Point, hint int32) int32 {
	t := hint
	if t == NoTri || m.Tris[t].Dead {
		t = m.anyLive()
		if t == NoTri {
			return NoTri
		}
	}
	maxSteps := 4 * len(m.Tris)
	for step := 0; step < maxSteps; step++ {
		tr := &m.Tris[t]
		a, b, c := m.Pts[tr.V[0]], m.Pts[tr.V[1]], m.Pts[tr.V[2]]
		// Move across the first edge that has p strictly outside.
		switch {
		case Orient2D(a, b, p) < 0:
			t = tr.N[2]
		case Orient2D(b, c, p) < 0:
			t = tr.N[0]
		case Orient2D(c, a, p) < 0:
			t = tr.N[1]
		default:
			return t
		}
		if t == NoTri {
			return NoTri
		}
	}
	// Degenerate walk (numerical near-collinearity): fall back to scan.
	for i := int32(0); i < m.TriCount(); i++ {
		if !m.Tris[i].Dead && m.Contains(i, p) {
			return i
		}
	}
	return NoTri
}

func (m *Mesh) anyLive() int32 {
	for i := m.TriCount() - 1; i >= 0; i-- {
		if !m.Tris[i].Dead {
			return i
		}
	}
	return NoTri
}

// cavityInto collects into dst[:0], by breadth-first search from start,
// the connected set of live triangles whose circumcircles contain p. It
// returns (nil, false) when the cavity exceeds maxSize or p does not
// see every edge of its boundary from inside. The search only reads
// mesh state. The cavity never grows past maxSize, so a dst with that
// capacity is never reallocated, and a caller can hand each concurrent
// search its own window of one buffer.
func (m *Mesh) cavityInto(dst []int32, p Point, start int32, maxSize int) ([]int32, bool) {
	cav := append(dst[:0], start)
	inCav := func(t int32) bool {
		for _, c := range cav {
			if c == t {
				return true
			}
		}
		return false
	}
	for qi := 0; qi < len(cav); qi++ {
		tr := &m.Tris[cav[qi]]
		for e := 0; e < 3; e++ {
			nb := tr.N[e]
			if nb != NoTri && inCav(nb) {
				continue
			}
			if nb != NoTri && !m.Tris[nb].Dead {
				a, b, c := m.TriPoints(nb)
				if InCircle(a, b, c, p) > 0 {
					if len(cav) >= maxSize {
						return nil, false
					}
					cav = append(cav, nb)
					continue
				}
			}
			// A boundary edge. Round-off can leave the mesh locally
			// non-Delaunay, and then the circumcircle test can carve a
			// cavity p does not see whole: an edge with p on or right of
			// it would give a fan triangle that is not counterclockwise.
			// Such a cavity is refused.
			if Orient2D(m.Pts[tr.V[(e+1)%3]], m.Pts[tr.V[(e+2)%3]], p) <= 0 {
				return nil, false
			}
		}
	}
	return cav, true
}

// boundaryEdge is one edge of the cavity boundary: the directed edge
// (A, B) with the outside neighbor Out.
type boundaryEdge struct {
	A, B int32
	Out  int32
}

// fanStack is how many boundary edges InsertWithCavity keeps on its
// stack. A cavity of k triangles has k+2 boundary edges, so every
// cavity RefineParallel's default MaxCavity admits fits; only the
// sequential paths, with their unbounded cavities, can spill to the
// heap.
const fanStack = 128

// InsertWithCavity retriangulates the cavity around new vertex pIdx:
// cavity triangles die and a fan of len(boundary) new triangles around
// pIdx replaces them. alloc supplies new triangle slots (sequential or
// parallel flavor). The caller guarantees exclusive access to the
// cavity triangles and their outside neighbors.
func (m *Mesh) InsertWithCavity(pIdx int32, cavity []int32, alloc func() int32) {
	inCav := func(t int32) bool {
		for _, c := range cavity {
			if c == t {
				return true
			}
		}
		return false
	}
	var boundaryStack [fanStack]boundaryEdge
	boundary := boundaryStack[:0]
	for _, ct := range cavity {
		tr := &m.Tris[ct]
		for e := 0; e < 3; e++ {
			nb := tr.N[e]
			if nb != NoTri && inCav(nb) {
				continue
			}
			boundary = append(boundary, boundaryEdge{
				A:   tr.V[(e+1)%3],
				B:   tr.V[(e+2)%3],
				Out: nb,
			})
		}
	}
	// Create the fan: triangle (A, B, pIdx) per boundary edge, CCW
	// because the cavity interior (where p lies) is left of A->B.
	var newStack [fanStack]int32
	newTris := newStack[:]
	if len(boundary) > fanStack {
		newTris = make([]int32, len(boundary))
	}
	for i, be := range boundary {
		nt := alloc()
		m.Tris[nt] = Tri{
			V:     [3]int32{be.A, be.B, pIdx},
			N:     [3]int32{NoTri, NoTri, be.Out},
			Fresh: true,
		}
		newTris[i] = nt
		// Repoint the outside neighbor at the new triangle, matching by
		// edge endpoints: the neighbor may border the cavity across
		// several edges, so slot identity alone is not enough.
		if be.Out != NoTri {
			out := &m.Tris[be.Out]
			for e := 0; e < 3; e++ {
				u, v := out.V[(e+1)%3], out.V[(e+2)%3]
				if (u == be.A && v == be.B) || (u == be.B && v == be.A) {
					out.N[e] = nt
					break
				}
			}
		}
	}
	// Wire fan-internal adjacency: triangle i's edge (B, p) — opposite
	// A, slot N[0] holds edge V1-V2 = (B, p) — meets the fan triangle
	// whose A equals our B; edge (p, A) — slot N[1] (edge V2-V0 = (p,A))
	// — meets the one whose B equals our A.
	for i, be := range boundary {
		for j, be2 := range boundary {
			if i == j {
				continue
			}
			if be2.A == be.B {
				m.Tris[newTris[i]].N[0] = newTris[j]
			}
			if be2.B == be.A {
				m.Tris[newTris[i]].N[1] = newTris[j]
			}
		}
	}
	for _, ct := range cavity {
		m.Tris[ct].Dead = true
	}
}

// atCorner reports whether p is exactly a corner of triangle t: a
// point located there duplicates a vertex, and inserting it would
// build degenerate triangles.
func (m *Mesh) atCorner(t int32, p Point) bool {
	tr := &m.Tris[t]
	return m.Pts[tr.V[0]] == p || m.Pts[tr.V[1]] == p || m.Pts[tr.V[2]] == p
}

// InsertPoint inserts point index pIdx (already stored in Pts)
// sequentially: locate, carve cavity, retriangulate. It returns false
// when the point could not be located (outside the super-triangle) or
// duplicates an existing vertex.
func (m *Mesh) InsertPoint(pIdx int32, hint int32) (int32, bool) {
	p := m.Pts[pIdx]
	t := m.Locate(p, hint)
	if t == NoTri {
		return hint, false
	}
	if m.atCorner(t, p) {
		return t, false
	}
	var cavStack [64]int32
	cav, ok := m.cavityInto(cavStack[:0], p, t, 1<<20)
	if !ok {
		return t, false
	}
	m.InsertWithCavity(pIdx, cav, m.allocSeq)
	return m.TriCount() - 1, true
}

// Triangulate builds the Delaunay triangulation of the mesh's input
// points sequentially. It returns the number of points actually
// inserted (duplicates are skipped).
func (m *Mesh) Triangulate() int {
	hint := int32(0)
	inserted := 0
	for i := 0; i < m.nInput; i++ {
		h, ok := m.InsertPoint(int32(i), hint)
		hint = h
		if ok {
			inserted++
		}
	}
	return inserted
}

// LiveTriangles returns the ids of live triangles; withSuper controls
// whether triangles touching super-triangle vertices are included.
func (m *Mesh) LiveTriangles(withSuper bool) []int32 {
	var out []int32
	for i := int32(0); i < m.TriCount(); i++ {
		tr := &m.Tris[i]
		if tr.Dead {
			continue
		}
		if !withSuper && (m.SuperVertex(tr.V[0]) || m.SuperVertex(tr.V[1]) || m.SuperVertex(tr.V[2])) {
			continue
		}
		out = append(out, i)
	}
	return out
}

// CheckInvariants validates structural soundness: live triangles are
// CCW, neighbor links are mutual, and shared edges agree. It returns an
// error describing the first violation.
func (m *Mesh) CheckInvariants() error {
	for i := int32(0); i < m.TriCount(); i++ {
		tr := &m.Tris[i]
		if tr.Dead {
			continue
		}
		a, b, c := m.TriPoints(i)
		if Orient2D(a, b, c) <= 0 {
			return fmt.Errorf("triangle %d not CCW", i)
		}
		for e := 0; e < 3; e++ {
			nb := tr.N[e]
			if nb == NoTri {
				continue
			}
			if m.Tris[nb].Dead {
				return fmt.Errorf("triangle %d has dead neighbor %d", i, nb)
			}
			// The neighbor must point back at i.
			back := false
			for e2 := 0; e2 < 3; e2++ {
				if m.Tris[nb].N[e2] == i {
					back = true
				}
			}
			if !back {
				return fmt.Errorf("neighbor link %d->%d not mutual", i, nb)
			}
			// The shared edge's endpoints must appear in both triangles.
			u, v := tr.V[(e+1)%3], tr.V[(e+2)%3]
			if !hasVertex(&m.Tris[nb], u) || !hasVertex(&m.Tris[nb], v) {
				return fmt.Errorf("edge %d-%d of triangle %d missing in neighbor %d", u, v, i, nb)
			}
		}
	}
	return nil
}

func hasVertex(t *Tri, v int32) bool {
	return t.V[0] == v || t.V[1] == v || t.V[2] == v
}

// CheckDelaunay verifies the empty-circumcircle property of every live
// triangle against every inserted point (O(T*P): test-sized meshes
// only). Super-triangle-adjacent triangles are skipped, as their
// circumcircles legitimately contain points.
func (m *Mesh) CheckDelaunay() error {
	live := m.LiveTriangles(false)
	nPts := int(m.PointCount())
	for _, t := range live {
		a, b, c := m.TriPoints(t)
		tr := &m.Tris[t]
		for p := 0; p < nPts; p++ {
			if p >= m.nInput && p < m.nInput+3 {
				continue // super vertices
			}
			pi := int32(p)
			if tr.V[0] == pi || tr.V[1] == pi || tr.V[2] == pi {
				continue
			}
			if InCircle(a, b, c, m.Pts[p]) > 1e-9 {
				return fmt.Errorf("point %d inside circumcircle of triangle %d", p, t)
			}
		}
	}
	return nil
}
