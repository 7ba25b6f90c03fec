package bench

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Oracle equivalence of the generic kernels across representations:
// BFS levels/parents and SSSP distances computed over the compressed
// CSR must match the plain CSR on every standard input at ScaleTest and
// ScaleSmall, in every traversal regime (heuristic, forced bottom-up,
// forced top-down, and the MultiQueue direct mode).

func equivScales(t *testing.T) []Scale {
	if testing.Short() {
		return []Scale{ScaleTest}
	}
	return []Scale{ScaleTest, ScaleSmall}
}

func TestBFSCompressedMatchesPlain(t *testing.T) {
	pool := core.NewPool(4)
	defer pool.Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		for _, scale := range equivScales(t) {
			t.Run(fmt.Sprintf("%s/scale%d", input, scale), func(t *testing.T) {
				g := graph.LoadUndirectedSorted(nil, input, scale, 0xbf5)
				var tb graph.Builder
				tg := tb.Transpose(nil, g)
				graph.SortAdjacency(nil, tg)
				var cb graph.Builder
				cg := cb.Compress(nil, g)
				ctg := cb.CompressTranspose(nil, tg)
				want := bfsOracle(g, 0)
				if cwant := bfsOracle(cg, 0); !equalU32(want, cwant) {
					t.Fatal("sequential oracle differs between representations")
				}

				modes := []struct {
					name        string
					alpha, beta int64
				}{
					{"default", bfsAlpha, bfsBeta},
					{"bottomup", forceOn, forceOn},
					{"topdown", forceOff, bfsBeta},
				}
				for _, m := range modes {
					p := newBFS(g, tg, 0)
					c := newBFS(cg, ctg, 0)
					p.want, c.want = want, want
					p.alpha, p.beta = m.alpha, m.beta
					c.alpha, c.beta = m.alpha, m.beta
					pool.Do(func(w *core.Worker) { p.runHybrid(w) })
					pool.Do(func(w *core.Worker) { c.runHybrid(w) })
					for who, b := range map[string]func() error{
						"plain/dist":     p.verify,
						"plain/parents":  p.verifyParents,
						"cgraph/dist":    c.verify,
						"cgraph/parents": c.verifyParents,
					} {
						if err := b(); err != nil {
							t.Fatalf("%s %s: %v", m.name, who, err)
						}
					}
				}

				// MultiQueue direct mode decodes through the per-worker
				// scratch table.
				c := newBFS(cg, ctg, 0)
				c.want = want
				c.run(4)
				if err := c.verify(); err != nil {
					t.Fatalf("direct: %v", err)
				}
			})
		}
	}
}

func TestSSSPCompressedMatchesPlain(t *testing.T) {
	pool := core.NewPool(4)
	defer pool.Close()
	for _, input := range []string{graph.InputLink, graph.InputRMAT, graph.InputRoad} {
		for _, scale := range equivScales(t) {
			t.Run(fmt.Sprintf("%s/scale%d", input, scale), func(t *testing.T) {
				wg := graph.LoadUndirectedWeighted(nil, input, scale, 0x555)
				// CompressW needs sorted rows: encode a sorted copy, so the
				// plain run keeps wg's build order.
				sorted := &graph.WGraph{
					Graph: graph.Graph{N: wg.N, Offs: wg.Offs, Adj: slices.Clone(wg.Adj)},
					Wgt:   slices.Clone(wg.Wgt),
				}
				graph.SortAdjacencyW(nil, sorted)
				var cb graph.Builder
				cw := cb.CompressW(nil, sorted)
				want := dijkstraOracle(wg, 0)
				if cwant := dijkstraOracle(cw, 0); !equalU32(want, cwant) {
					t.Fatal("sequential oracle differs between representations")
				}
				p := newSSSP(wg, 0)
				c := newSSSP(cw, 0)
				p.want, c.want = want, want
				if p.deltaShift != c.deltaShift {
					t.Fatalf("delta heuristic differs: %d vs %d", p.deltaShift, c.deltaShift)
				}
				p.runDelta(4)
				if err := p.verify(); err != nil {
					t.Fatalf("plain delta: %v", err)
				}
				c.runDelta(4)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph delta: %v", err)
				}
				c.reset()
				c.run(4)
				if err := c.verify(); err != nil {
					t.Fatalf("cgraph direct: %v", err)
				}
			})
		}
	}
}

func equalU32(a, b []uint32) bool {
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
