package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Direction-forcing tests for the hybrid BFS: each topology runs under
// the default heuristic, with bottom-up forced from the first level,
// and with top-down pinned — all three must produce the oracle's level
// assignment and a valid parent tree. The thresholds are injectable
// exactly for this: alpha=0 makes the bottom-up entry test
// (frontierEdges*alpha > remEdges) unsatisfiable, while alpha=beta=1<<20
// satisfies entry immediately and keeps the exit test
// (frontierVerts*beta < n) false until the frontier dies.
// (1<<20, not anything near 1<<40: the entry product is int64.)

const (
	forceOff = 0
	forceOn  = 1 << 20
)

// symEdges doubles an undirected pair list into a directed edge list.
func symEdges(pairs [][2]int32) []graph.Edge {
	edges := make([]graph.Edge, 0, 2*len(pairs))
	for _, p := range pairs {
		edges = append(edges, graph.Edge{From: p[0], To: p[1]}, graph.Edge{From: p[1], To: p[0]})
	}
	return edges
}

func starPairs(n int32) [][2]int32 {
	pairs := make([][2]int32, 0, n-1)
	for v := int32(1); v < n; v++ {
		pairs = append(pairs, [2]int32{0, v})
	}
	return pairs
}

func chainPairs(n int32) [][2]int32 {
	pairs := make([][2]int32, 0, n-1)
	for v := int32(1); v < n; v++ {
		pairs = append(pairs, [2]int32{v - 1, v})
	}
	return pairs
}

// twoComponents: a chain reachable from the source plus a clique that
// is not — unreached vertices must keep dist=inf and parent=-1 in both
// directions (the bottom-up step scans them every level).
func twoComponentPairs(n int32) [][2]int32 {
	half := n / 2
	pairs := chainPairs(half)
	for u := half; u < n; u++ {
		for v := u + 1; v < n && v < u+4; v++ {
			pairs = append(pairs, [2]int32{u, v})
		}
	}
	return pairs
}

func TestHybridBFSForcedDirections(t *testing.T) {
	type tc struct {
		name  string
		graph func() (*graph.Graph, int32)
	}
	cases := []tc{
		{"star", func() (*graph.Graph, int32) {
			return graph.BuildCSR(nil, 3000, symEdges(starPairs(3000))), 3000
		}},
		{"chain", func() (*graph.Graph, int32) {
			return graph.BuildCSR(nil, 3000, symEdges(chainPairs(3000))), 3000
		}},
		{"disconnected", func() (*graph.Graph, int32) {
			return graph.BuildCSR(nil, 2000, symEdges(twoComponentPairs(2000))), 2000
		}},
		{"powerlaw", func() (*graph.Graph, int32) {
			g := graph.LoadUndirected(nil, graph.InputLink, ScaleTest, 0xd1)
			return g, g.N
		}},
	}
	modes := []struct {
		name        string
		alpha, beta int64
	}{
		{"default", bfsAlpha, bfsBeta},
		{"bottomup", forceOn, forceOn},
		{"topdown", forceOff, bfsBeta},
	}
	pool := core.NewPool(4)
	defer pool.Close()

	// Every case is symmetric, so it runs over a built transpose and,
	// under "self", over g as its own transpose: what the registered bfs
	// runs.
	for _, c := range cases {
		g, _ := c.graph()
		var tb graph.Builder
		transposes := []struct {
			prefix string
			tg     *graph.Graph
		}{{"", tb.Transpose(nil, g)}, {"self/", g}}
		want := bfsOracle(g, 0)
		for _, tr := range transposes {
			tg := tr.tg
			for _, m := range modes {
				t.Run(fmt.Sprintf("%s/%s%s", c.name, tr.prefix, m.name), func(t *testing.T) {
					b := newBFS(g, tg, 0)
					b.want = want
					b.alpha, b.beta = m.alpha, m.beta
					pool.Do(func(w *core.Worker) { b.runHybrid(w) })
					if err := b.verify(); err != nil {
						t.Fatal(err)
					}
					if err := b.verifyParents(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestHybridBFSDirectedChainBottomUp pins that bottom-up steps really
// scan the transpose: on a directed chain 0->1->...->n-1 the forward
// graph gives each vertex out-degree 1 but in-degree arrives only via
// the transpose, so a wrong Transpose would leave everything past the
// first level unreached.
func TestHybridBFSDirectedChainBottomUp(t *testing.T) {
	const n = 512
	edges := make([]graph.Edge, 0, n-1)
	for v := int32(1); v < n; v++ {
		edges = append(edges, graph.Edge{From: v - 1, To: v})
	}
	g := graph.BuildCSR(nil, n, edges)
	var tb graph.Builder
	tg := tb.Transpose(nil, g)
	b := newBFS(g, tg, 0)
	b.want = bfsOracle(g, 0)
	b.alpha, b.beta = forceOn, forceOn
	b.runHybrid(nil)
	if err := b.verify(); err != nil {
		t.Fatal(err)
	}
	if err := b.verifyParents(); err != nil {
		t.Fatal(err)
	}
	if b.dist[n-1] != n-1 {
		t.Fatalf("chain end at level %d, want %d", b.dist[n-1], n-1)
	}
}

// TestHybridBFSSequentialWorker covers the nil-worker (sequential
// library) path the instances use at threads=0.
func TestHybridBFSSequentialWorker(t *testing.T) {
	g := graph.LoadUndirected(nil, graph.InputRMAT, ScaleTest, 0xd2)
	var tb graph.Builder
	tg := tb.Transpose(nil, g)
	b := newBFS(g, tg, 0)
	b.want = bfsOracle(g, 0)
	b.runHybrid(nil)
	if err := b.verify(); err != nil {
		t.Fatal(err)
	}
	if err := b.verifyParents(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSteppingMatchesOracleAcrossShifts runs the batched
// delta-stepping sssp with bucket widths around the heuristic choice;
// every width must still produce exact distances (width only shifts
// the work/order trade-off).
func TestDeltaSteppingMatchesOracleAcrossShifts(t *testing.T) {
	g := graph.LoadUndirectedWeighted(nil, graph.InputRMAT, ScaleTest, 0xd3)
	want := dijkstraOracle(g, 0)
	auto := deltaFor(g)
	for _, shift := range []uint32{0, auto, auto + 3} {
		s := newSSSP(g, 0)
		s.want = want
		s.deltaShift = shift
		s.runDelta(4)
		if err := s.verify(); err != nil {
			t.Fatalf("shift=%d: %v", shift, err)
		}
	}
}

// TestGraphQueueTelemetry pins what `rpbreport -what graph` and the
// benchmark's mq.sssp_locks_per_item probe print: sssp through Process
// pays the classic two locks per popped vertex (less only by the one
// seed push), and delta-stepping on the batched queue an order of
// magnitude fewer. Both runs are oracle-verified inside.
func TestGraphQueueTelemetry(t *testing.T) {
	single, batched, err := GraphQueueTelemetry(ScaleTest, 3)
	if err != nil {
		t.Fatal(err)
	}
	sl, bl := single.LocksPerItem(), batched.LocksPerItem()
	if sl < 1.9 {
		t.Errorf("single-item discipline: %.3f locks per item, want >= 1.9 (%+v)", sl, single)
	}
	if bl <= 0 || bl >= sl/8 {
		t.Errorf("batched discipline: %.3f locks per item, want in (0, %.3f) (%+v)", bl, sl/8, batched)
	}
}
