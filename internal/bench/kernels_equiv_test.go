package bench

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Oracle equivalence of the analytics kernels across representations:
// CC labels, PageRank ranks (bit-exact float64), triangle counts, and
// k-core coreness computed over the compressed CSR must match the plain
// CSR and the sequential oracle on every standard input at ScaleTest
// and ScaleSmall, in library (pool and sequential) and direct modes.

func TestCCCompressedMatchesPlain(t *testing.T) {
	pool := core.NewPool(4)
	defer pool.Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		for _, scale := range equivScales(t) {
			t.Run(fmt.Sprintf("%s/scale%d", input, scale), func(t *testing.T) {
				g := graph.LoadUndirectedSorted(nil, input, scale, 0xcc0)
				var cb graph.Builder
				cg := cb.Compress(nil, g)
				want := ccOracle(g)
				if cwant := ccOracle(cg); !equalI32(want, cwant) {
					t.Fatal("sequential oracle differs between representations")
				}
				p := newCC(g)
				c := newCC(cg)
				p.want, c.want = want, want
				pool.Do(func(w *core.Worker) { p.runLibrary(w) })
				if err := p.verify(); err != nil {
					t.Fatalf("plain pool: %v", err)
				}
				pool.Do(func(w *core.Worker) { c.runLibrary(w) })
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph pool: %v", err)
				}
				c.reset()
				c.runLibrary(nil)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph sequential: %v", err)
				}
				c.runDirect(4)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph direct: %v", err)
				}
				if p.stat() != c.stat() {
					t.Fatalf("component count differs: %d vs %d", p.stat(), c.stat())
				}
			})
		}
	}
}

func TestPRCompressedMatchesPlain(t *testing.T) {
	pool := core.NewPool(4)
	defer pool.Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		for _, scale := range equivScales(t) {
			t.Run(fmt.Sprintf("%s/scale%d", input, scale), func(t *testing.T) {
				g := graph.LoadUndirectedSorted(nil, input, scale, 0x9a6)
				// The compressed pull gathers over the pool-sharing
				// compressed transpose, exactly the XL configuration.
				var cb graph.Builder
				cg := cb.Compress(nil, g)
				ctg := cb.CompressTranspose(nil, g)
				if &cg.Bytes[0] != &ctg.Bytes[0] {
					t.Fatal("forward and transpose do not share a byte pool")
				}
				want := prOracle(g, g, prMaxIters)
				if cwant := prOracle(cg, ctg, prMaxIters); !equalF64(want, cwant) {
					t.Fatal("sequential oracle differs between representations")
				}
				p := newPR(g, g)
				c := newPR(cg, ctg)
				p.want, c.want = want, want
				p.reset()
				pool.Do(func(w *core.Worker) { p.runLibrary(w) })
				if err := p.verify(); err != nil {
					t.Fatalf("plain pool: %v", err)
				}
				c.reset()
				pool.Do(func(w *core.Worker) { c.runLibrary(w) })
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph pool: %v", err)
				}
				if p.rounds != c.rounds {
					t.Fatalf("convergence rounds differ: %d vs %d", p.rounds, c.rounds)
				}
				c.reset()
				c.runLibrary(nil)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph sequential: %v", err)
				}
				c.reset()
				c.runDirect(4)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph direct: %v", err)
				}
			})
		}
	}
}

// tcCheckAll runs one instance through every execution mode — T
// workers, one worker, sequential library (w == nil) and the direct
// variant — and checks each count against want.
func tcCheckAll[A graph.Adjacency](t *testing.T, name string, pools []*core.Pool, k *tcInstance[A], want int64) {
	t.Helper()
	k.want = want
	check := func(mode string) {
		t.Helper()
		if err := k.verify(); err != nil {
			t.Fatalf("%s, %d hubs, %s: %v", name, len(k.hubs.list), mode, err)
		}
		k.count = -1
	}
	for _, pool := range pools {
		pool.Do(func(w *core.Worker) { k.runLibrary(w) })
		check(fmt.Sprintf("pool of %d", pool.Workers()))
	}
	k.runLibrary(nil)
	check("sequential")
	k.runDirect(4)
	check("direct")
}

func TestTCCompressedMatchesPlain(t *testing.T) {
	pools := []*core.Pool{core.NewPool(4), core.NewPool(1)}
	defer pools[0].Close()
	defer pools[1].Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		for _, scale := range equivScales(t) {
			t.Run(fmt.Sprintf("%s/scale%d", input, scale), func(t *testing.T) {
				g := graph.LoadUndirectedSorted(nil, input, scale, 0x7c1)
				edges, n := tcOrientEdges(g)
				var b graph.Builder
				dag := b.BuildSorted(nil, n, edges)
				var cb graph.Builder
				cdag := cb.Compress(nil, dag)
				want := tcOracle(dag)
				if cwant := tcOracle(cdag); cwant != want {
					t.Fatalf("sequential oracle differs: %d vs %d", cwant, want)
				}
				// The instance as registered (hubs only where they pay), then
				// the hub count forced: none, a word's worth, the derived H
				// (below n on every input) and, where n x n bits are a
				// small matrix, H = n: every row a matrix row.
				tcCheckAll(t, "plain", pools, newTC(dag), want)
				tcCheckAll(t, "cgraph", pools, newTC(cdag), want)
				derived := tcHubCount(int(n), dag.NumEdges())
				if derived >= int(n) {
					t.Fatalf("derived hub count %d does not stay below n = %d", derived, n)
				}
				hs := []int{0, 64, derived}
				if scale == ScaleTest {
					hs = append(hs, int(n))
				}
				for _, h := range hs {
					p, c := newTCHubbed(dag, h), newTCHubbed(cdag, h)
					if !slices.Equal(p.hubs.list, c.hubs.list) {
						t.Fatalf("%d hubs: plain and compressed DAG pick different hubs", h)
					}
					hm := make([]uint64, h*((h+63)/64))
					c.fillHubRows(hm, 0, h, make([]int32, c.maxDeg))
					if !c.hubsClosed(hm) {
						t.Fatalf("%d hubs: the top of a degree-ordered DAG is not closed under out-neighbors", h)
					}
					tcCheckAll(t, "plain", pools, p, want)
					tcCheckAll(t, "cgraph", pools, c, want)
				}
			})
		}
	}
}

func TestKCoreCompressedMatchesPlain(t *testing.T) {
	pool := core.NewPool(4)
	defer pool.Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		for _, scale := range equivScales(t) {
			t.Run(fmt.Sprintf("%s/scale%d", input, scale), func(t *testing.T) {
				g := graph.LoadUndirected(nil, input, scale, 0x6c0)
				var cb graph.Builder
				cg := cb.Compress(nil, graph.LoadUndirectedSorted(nil, input, scale, 0x6c0))
				want := kcoreOracle(g)
				if cwant := kcoreOracle(cg); !equalU32(want, cwant) {
					t.Fatal("sequential oracle differs between representations")
				}
				p := newKCore(g)
				c := newKCore(cg)
				p.want, c.want = want, want
				p.reset()
				pool.Do(func(w *core.Worker) { p.runLibrary(w) })
				if err := p.verify(); err != nil {
					t.Fatalf("plain pool: %v", err)
				}
				c.reset()
				pool.Do(func(w *core.Worker) { c.runLibrary(w) })
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph pool: %v", err)
				}
				c.reset()
				c.runLibrary(nil)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph sequential: %v", err)
				}
				c.reset()
				c.runDirect(4)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph direct: %v", err)
				}
				if p.stat() != c.stat() {
					t.Fatalf("degeneracy differs: %d vs %d", p.stat(), c.stat())
				}
			})
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The kernels moved onto the range-bodied engines (core.ForBlocks, the
// bitmask pack, core.Scatter, the range-bodied checker) must produce
// what they produced before the move, in all three modes, on a pool
// and sequentially. For isort, sort, sa, lrs and bw the oracle Verify
// compares against *is* the whole output, so passing it is
// byte-identity. mis, msf and dedup verify a property of the output
// (maximal independence, total weight, distinct count), so their full
// outputs — the status array, the forest's edge set, the extracted
// key set — are pinned as digests recorded from the commit before the
// conversion; mm, sf and dr (which reach the engines through
// specfor.Run) are deterministic-reservation loops pinned by their
// verifiers.
func TestConvertedKernelsMatchParent(t *testing.T) {
	defer core.SetMode(core.ModeUnchecked)
	pool := core.NewPool(4)
	defer pool.Close()
	runs := func(t *testing.T, reset func(), run func(w *core.Worker), check func(how string)) {
		for _, mode := range []core.Mode{core.ModeUnchecked, core.ModeChecked, core.ModeSynchronized} {
			core.SetMode(mode)
			reset()
			pool.Do(run)
			check(mode.String() + " pool")
			reset()
			run(nil)
			check(mode.String() + " sequential")
		}
	}
	for _, k := range [][2]string{
		{"isort", "exponential"}, {"sort", "exponential"}, {"sa", "wiki"}, {"lrs", "wiki"}, {"bw", "wiki"},
		{"mm", graph.InputRMAT}, {"sf", graph.InputLink}, {"dr", "kuzmin"},
	} {
		spec, err := Find(k[0])
		if err != nil {
			t.Fatal(err)
		}
		inst := spec.Make(k[1], ScaleTest)
		reset := inst.Reset
		if reset == nil {
			reset = func() {}
		}
		runs(t, reset, inst.RunLibrary, func(how string) {
			if err := inst.Verify(); err != nil {
				t.Errorf("%s %s: %v", k[0], how, err)
			}
		})
	}

	digest := func(bytes func(yield func(byte))) uint64 {
		h := uint64(14695981039346656037) // FNV-1a
		bytes(func(b byte) { h = (h ^ uint64(b)) * 1099511628211 })
		return h
	}
	pinned := func(name string, want uint64, verify func() error, got func() uint64) func(string) {
		return func(how string) {
			if err := verify(); err != nil {
				t.Errorf("%s %s: %v", name, how, err)
			}
			if g := got(); g != want {
				t.Errorf("%s %s: output digest %#x, the parent commit's is %#x", name, how, g, want)
			}
		}
	}

	mis := newMIS(graph.InputRoad, ScaleTest)
	runs(t, mis.reset, mis.runLibrary, pinned("mis", misParentDigest, mis.verify, func() uint64 {
		return digest(func(yield func(byte)) {
			for _, s := range mis.status {
				yield(byte(s))
			}
		})
	}))

	msf := newMSF(graph.InputRMAT, ScaleTest)
	runs(t, msf.reset, msf.runLibrary, pinned("msf", msfParentDigest, msf.verify, func() uint64 {
		return digest(func(yield func(byte)) {
			for _, in := range msf.inMSF {
				b := byte(0)
				if in {
					b = 1
				}
				yield(b)
			}
		})
	}))

	dedup := newDedup(ScaleTest)
	runs(t, dedup.reset, dedup.runLibrary, pinned("dedup", dedupParentDigest, dedup.verify, func() uint64 {
		// Slot order depends on which insert wins a probe race; the key
		// set does not.
		keys := append([]uint64(nil), dedup.out...)
		slices.Sort(keys)
		return digest(func(yield func(byte)) {
			for _, k := range keys {
				for s := 0; s < 64; s += 8 {
					yield(byte(k >> s))
				}
			}
		})
	}))
}

// Output digests of mis (road), msf (rmat) and dedup at ScaleTest,
// recorded at commit c4ceb91, the parent of the engine conversion.
const (
	misParentDigest   = 0xbec45d342bd8e63
	msfParentDigest   = 0x7088e1e82edc2adf
	dedupParentDigest = 0x6ee53012f2796422
)
