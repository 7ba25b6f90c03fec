package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestKernelsSteadyStateAllocs pins what one warmed run of each kernel's
// library expression allocates: instance and pool built once, then
// Reset + RunLibrary rounds reusing per-worker arena scratch, boxes and
// the instance's persistent frontiers and queues. The pool has one
// worker, so the counts are the kernel's own — a steal would add the
// scheduler's frame and closure — and repeat exactly. max is the count
// measured when the row was last edited: a change that makes a kernel
// allocate more has to raise it here, in the diff. What the remaining
// allocations are (closures that carry a wrapper's arguments, loop
// bodies and MultiQueue tasks built once per run) is in docs/MEMORY.md
// and docs/GRAPH.md.
func TestKernelsSteadyStateAllocs(t *testing.T) {
	core.SetMode(core.ModeUnchecked)
	pool := core.NewPool(1)
	defer pool.Close()

	// The steady state is the fewest allocations of any round after the
	// first: arena slabs consolidate and queue heaps reach their size
	// over the first few rounds, and a stray allocation only ever adds.
	check := func(name string, inst *Instance, max uint64) {
		got := ^uint64(0)
		pool.Do(func(w *core.Worker) {
			var ms runtime.MemStats
			for round := 0; round < 6; round++ {
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				if inst.Reset != nil {
					inst.Reset()
				}
				inst.RunLibrary(w)
				runtime.ReadMemStats(&ms)
				if round > 0 {
					got = min(got, ms.Mallocs-before)
				}
			}
		})
		if err := inst.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got > max {
			t.Errorf("%s: %d allocs per steady-state run, want at most %d", name, got, max)
		}
	}

	for _, r := range []struct {
		kernel, input string
		scale         Scale
		max           uint64
	}{
		{"sort", "exponential", ScaleTest, 9},
		{"isort", "exponential", ScaleTest, 4},
		{"hist", "exponential", ScaleTest, 4},
		{"dedup", "exponential", ScaleTest, 3},
		{"mis", graph.InputLink, ScaleTest, 4},
		{"msf", graph.InputRMAT, ScaleTest, 5},
		{"sf", graph.InputLink, ScaleTest, 1},
		{"sa", "wiki", ScaleTest, 42},
		{"lrs", "wiki", ScaleTest, 45},
		{"bw", "wiki", ScaleTest, 15},
		{"mm", graph.InputRMAT, ScaleTest, 23},
		{"mm", graph.InputRoad, ScaleTest, 22},
		// Reset rebuilds the Delaunay triangulation (3: the mesh, its
		// points and its triangles), and the check counts Reset with the
		// run; the run's 14 are its loop bodies, built once, and the
		// variables they share.
		{"dr", "kuzmin", ScaleTest, 17},
		{"bfs", graph.InputRMAT, ScaleTest, 10},
		{"bfs", graph.InputLink, ScaleTest, 9},
		// The all-top-down traversal allocates nothing, but only a grid
		// too large for the bottom-up switch stays top-down throughout.
		{"bfs", graph.InputRoad, ScaleSmall, 0},
		{"sssp", graph.InputRMAT, ScaleTest, 1},
		{"sssp", graph.InputLink, ScaleTest, 1},
		{"sssp", graph.InputRoad, ScaleTest, 1},
		{"cc", graph.InputRMAT, ScaleTest, 9},
		{"cc", graph.InputLink, ScaleTest, 9},
		{"cc", graph.InputRoad, ScaleTest, 9},
		{"pr", graph.InputRMAT, ScaleTest, 120},
		{"pr", graph.InputLink, ScaleTest, 108},
		{"pr", graph.InputRoad, ScaleTest, 120},
		{"tc", graph.InputRMAT, ScaleTest, 0},
		{"tc", graph.InputLink, ScaleTest, 0},
		{"tc", graph.InputRoad, ScaleTest, 0},
		{"kcore", graph.InputRMAT, ScaleTest, 5},
		{"kcore", graph.InputLink, ScaleTest, 5},
		{"kcore", graph.InputRoad, ScaleTest, 5},
	} {
		spec, err := Find(r.kernel)
		if err != nil {
			t.Fatal(err)
		}
		check(r.kernel+"-"+r.input, spec.Make(r.input, r.scale), r.max)
	}

	// The same pull iteration over the compressed transpose: row decode
	// must not add an allocation to the plain pr-rmat row.
	g := graph.LoadUndirectedSorted(nil, graph.InputRMAT, ScaleTest, 0x9a6)
	var cb graph.Builder
	cg := cb.Compress(nil, g)
	ctg := cb.CompressTranspose(nil, g)
	pr := NewPRKernel(cg, ctg)
	pr.SetWant(PROracle(cg, ctg, 20))
	check("pr-rmat compressed", &Instance{RunLibrary: pr.Run, Reset: pr.Reset, Verify: pr.Verify}, 120)

	// CSR construction through a reused Builder: core.CountSort's box
	// is checked out and returned every round, so what is left is its
	// count matrix and the validation pass's closures.
	const n = 1 << 10
	sym := graph.Symmetrize(nil, graph.RMAT(nil, 10, 6, 0xc5a))
	var bld graph.Builder
	var built *graph.Graph
	check("BuildCSR", &Instance{
		RunLibrary: func(w *core.Worker) { built = bld.Build(w, n, sym) },
		Verify: func() error {
			if built.N != n || int(built.M()) != len(sym) {
				return fmt.Errorf("built %d vertices, %d edges from %d", built.N, built.M(), len(sym))
			}
			return nil
		},
	}, 4)
}
