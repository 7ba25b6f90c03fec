package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// sf — spanning forest (PBBS): concurrent union-find over the edge
// list. Every edge attempts a Union; the winners form the forest. The
// CAS hooks in the union-find are the AW pattern: conflicting writes to
// shared parent slots.

type sfInstance struct {
	edges    []graph.Edge
	n        int32
	uf       *unionfind.UF // built once, Reset between rounds
	inForest []bool
	want     int // forest size = n - #components (from sequential oracle)
}

func (s *sfInstance) reset() {
	for i := range s.inForest {
		s.inForest[i] = false
	}
	s.uf.Reset()
}

func (s *sfInstance) runLibrary(w *core.Worker) {
	uf := s.uf
	core.ForBlocks(w, 0, len(s.edges), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.edges[i]
			if uf.Union(e.From, e.To) {
				s.inForest[i] = true
			}
		}
	})
}

func (s *sfInstance) runDirect(nThreads int) {
	uf := unionfind.New(s.n)
	directFor(nThreads, len(s.edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := s.edges[i]
			if uf.Union(e.From, e.To) {
				s.inForest[i] = true
			}
		}
	})
}

func (s *sfInstance) verify() error {
	count := 0
	check := unionfind.New(s.n)
	for i, in := range s.inForest {
		if !in {
			continue
		}
		count++
		e := s.edges[i]
		if !check.Union(e.From, e.To) {
			return fmt.Errorf("sf: forest contains a cycle through edge %d", i)
		}
	}
	if count != s.want {
		return fmt.Errorf("sf: forest has %d edges, want %d", count, s.want)
	}
	// Spanning: every input edge's endpoints are connected in the forest.
	for i, e := range s.edges {
		if !check.SameSet(e.From, e.To) {
			return fmt.Errorf("sf: edge %d endpoints not connected by forest", i)
		}
	}
	return nil
}

func init() {
	core.DeclareSite("sf", "edges read", core.RO)
	core.DeclareSite("sf", "find: parent chase read", core.AW)
	core.DeclareSite("sf", "union: parent hook CAS", core.AW)
	core.DeclareSite("sf", "own forest flag write", core.Stride)
	core.DeclareSite("sf", "edge partition", core.Block)
	core.DeclareSite("sf", "find recursion", core.DC)

	Register(Spec{
		Name:   "sf",
		Long:   "spanning forest",
		Inputs: []string{graph.InputLink, graph.InputRoad},
		Make: func(input string, scale Scale) *Instance {
			edges, n := graph.UndirectedEdgeList(nil, input, scale, 0x5f)
			// Oracle: component count via sequential union-find.
			oracle := unionfind.New(n)
			forest := 0
			for _, e := range edges {
				if oracle.Union(e.From, e.To) {
					forest++
				}
			}
			s := &sfInstance{
				edges:    edges,
				n:        n,
				uf:       unionfind.New(n),
				inForest: make([]bool, len(edges)),
				want:     forest,
			}
			return &Instance{
				RunLibrary: s.runLibrary,
				RunDirect:  s.runDirect,
				Verify:     s.verify,
				Reset:      s.reset,
			}
		},
	})
}
