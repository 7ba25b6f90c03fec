package bench

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// cc — connected components. The library expression is Afforest-style
// sampled label propagation over the concurrent union-find: a sampling
// phase unions only each vertex's first ccSampleNbrs neighbors (on the
// skewed standard inputs this already coalesces the giant component),
// a probe guesses the largest intermediate component, and the finish
// phase unions the remaining neighbors of every vertex *outside* that
// component — the bulk of the edge mass is never touched. The skip set
// reuses the graph kernels' bitmap-frontier machinery: word-owner
// parallel build, TestBit probes in the finish phase. The CAS hooks in
// the union-find are the AW pattern (conflicting writes to shared
// parent slots), exactly the sf benchmark's fear profile, now driven
// row-at-a-time through the Adjacency seam so the same kernel runs on
// plain and compressed CSR, decoding rows into per-worker arena
// scratch.
//
// Labels are deterministic across schedules and representations: Union
// always hooks the higher-id root under the lower-id one, so a
// component's surviving root — and therefore every member's final
// label — is its minimum vertex id, the same answer the sequential
// oracle computes.

type ccInstance[A graph.Adjacency] struct {
	g      A
	uf     *unionfind.UF // reused across rounds via Reset
	label  []int32
	want   []int32
	skipBM []uint64 // bitmap of the sampled largest component
	sample []int32  // probe buffer: roots of ccSampleProbe vertices
	maxDeg int
}

const (
	// ccSampleNbrs is Afforest's neighbor-sample width: phase 1 unions
	// only this many of each vertex's first neighbors.
	ccSampleNbrs = 2
	// ccSampleProbe is how many evenly spaced vertices the component
	// probe inspects to guess the largest intermediate component.
	ccSampleProbe = 1024
)

func newCC[A graph.Adjacency](g A) *ccInstance[A] {
	n := g.NumVertices()
	return &ccInstance[A]{
		g:      g,
		uf:     unionfind.New(n),
		label:  make([]int32, n),
		skipBM: make([]uint64, (int(n)+63)/64),
		sample: make([]int32, 0, ccSampleProbe),
		maxDeg: int(g.MaxDegree()),
	}
}

func (c *ccInstance[A]) reset() { c.uf.Reset() }

// mostFrequentRoot probes evenly spaced vertices after the sampling
// phase and returns the most frequent root among them — the presumed
// giant component. The probe buffer is persistent, so the steady state
// allocates nothing.
func (c *ccInstance[A]) mostFrequentRoot(n int) int32 {
	k := ccSampleProbe
	if k > n {
		k = n
	}
	stride := n / k
	if stride == 0 {
		stride = 1
	}
	s := c.sample[:0]
	for i := 0; i < k; i++ {
		s = append(s, c.uf.Find(int32(i*stride)))
	}
	core.Sort(nil, s)
	best, bestCnt := s[0], 1
	cur, cnt := s[0], 1
	for _, r := range s[1:] {
		if r == cur {
			cnt++
		} else {
			cur, cnt = r, 1
		}
		if cnt > bestCnt {
			best, bestCnt = cur, cnt
		}
	}
	return best
}

func (c *ccInstance[A]) runLibrary(w *core.Worker) {
	n := int(c.g.NumVertices())
	uf := c.uf

	// Phase 1 — sample: union each vertex with its first ccSampleNbrs
	// neighbors. Rows decode into per-chunk arena scratch,
	// Mark/Release bracketed like the BFS expansion; a compressed row
	// decodes only as far as the kernel reads, but RowInto is
	// whole-row, so the sample phase reads full rows and uses the head.
	sampleStep := func(ww *core.Worker, lo, hi int) {
		a := arena.Of(ww)
		am := a.Mark()
		buf := arena.AllocUninit[int32](a, c.maxDeg)
		for v := lo; v < hi; v++ {
			row := c.g.RowInto(int32(v), buf)
			if len(row) > ccSampleNbrs {
				row = row[:ccSampleNbrs]
			}
			for _, u := range row {
				uf.Union(int32(v), u)
			}
		}
		a.Release(am)
	}
	w.For(0, n, 0, sampleStep)

	// Phase 2 — probe for the giant component, then mark it in the
	// skip bitmap. Each task owns one 64-vertex bitmap word, the same
	// word-owner discipline as the bottom-up BFS step.
	big := c.mostFrequentRoot(n)
	core.ForRange(w, 0, len(c.skipBM), 0, func(wi int) {
		var word uint64
		base := wi * 64
		hi := base + 64
		if hi > n {
			hi = n
		}
		for v := base; v < hi; v++ {
			if uf.Find(int32(v)) == big {
				word |= 1 << uint32(v-base)
			}
		}
		c.skipBM[wi] = word
	})

	// Phase 3 — finish: union the remaining neighbors of every vertex
	// outside the giant component. Every edge is covered: an edge with
	// both endpoints in the skip set is already intra-component, and
	// symmetric inputs store each remaining edge in its non-skipped
	// endpoint's row too.
	finishStep := func(ww *core.Worker, lo, hi int) {
		a := arena.Of(ww)
		am := a.Mark()
		buf := arena.AllocUninit[int32](a, c.maxDeg)
		for v := lo; v < hi; v++ {
			if core.TestBit(c.skipBM, int32(v)) {
				continue
			}
			row := c.g.RowInto(int32(v), buf)
			for _, u := range row {
				uf.Union(int32(v), u)
			}
		}
		a.Release(am)
	}
	w.For(0, n, 0, finishStep)

	// Phase 4 — labels: the forest is quiescent, every Find lands on
	// the component's minimum id.
	core.ForRange(w, 0, n, 0, func(v int) {
		c.label[v] = uf.Find(int32(v))
	})
}

// runDirect is the hand-rolled baseline: a fresh union-find, every
// edge unioned from statically chunked rows, no sampling or skip set.
func (c *ccInstance[A]) runDirect(nThreads int) {
	n := int(c.g.NumVertices())
	uf := unionfind.New(int32(n))
	directFor(nThreads, n, func(lo, hi int) {
		buf := make([]int32, c.maxDeg)
		for v := lo; v < hi; v++ {
			for _, u := range c.g.RowInto(int32(v), buf) {
				uf.Union(int32(v), u)
			}
		}
	})
	directFor(nThreads, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			c.label[v] = uf.Find(int32(v))
		}
	})
}

func (c *ccInstance[A]) verify() error {
	for v := range c.label {
		if c.label[v] != c.want[v] {
			return fmt.Errorf("cc: label[%d] = %d, want %d", v, c.label[v], c.want[v])
		}
	}
	return nil
}

// stat returns the component count, the cross-variant determinism
// statistic.
func (c *ccInstance[A]) stat() int64 {
	var comps int64
	for v, l := range c.label {
		if l == int32(v) {
			comps++
		}
	}
	return comps
}

// ccOracle computes component labels with a sequential union-find:
// every row unioned in order, labels = final roots (minimum id per
// component).
func ccOracle[A graph.Adjacency](g A) []int32 {
	n := g.NumVertices()
	uf := unionfind.New(n)
	buf := make([]int32, g.MaxDegree())
	for v := int32(0); v < n; v++ {
		for _, u := range g.RowInto(v, buf) {
			uf.Union(v, u)
		}
	}
	out := make([]int32, n)
	for v := int32(0); v < n; v++ {
		out[v] = uf.Find(v)
	}
	return out
}

func init() {
	core.DeclareSite("cc", "sample/finish: union parent hook CAS", core.AW)
	core.DeclareSite("cc", "sample/finish: find parent chase read", core.AW)
	core.DeclareSite("cc", "skip: component bitmap word build", core.Stride)
	core.DeclareSite("cc", "label: own component write", core.Stride)

	Register(Spec{
		Name:   "cc",
		Long:   "connected components",
		Inputs: []string{graph.InputLink, graph.InputRMAT, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			g := graph.LoadUndirected(nil, input, scale, 0xcc0)
			c := newCC(g)
			c.want = ccOracle(g)
			return &Instance{
				RunLibrary: c.runLibrary,
				RunDirect:  c.runDirect,
				Verify:     c.verify,
				Reset:      c.reset,
				Stat:       c.stat,
			}
		},
	})
}
