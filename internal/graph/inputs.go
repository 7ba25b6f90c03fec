package graph

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// InputScale selects how large the standard inputs are. The paper's
// graphs (Table 2) have 24M-101M vertices; this reproduction defaults to
// a container-friendly scale that preserves each input's degree
// distribution and |E|/|V| ratio.
type InputScale int

const (
	// ScaleTest is for unit tests: thousands of edges.
	ScaleTest InputScale = iota
	// ScaleSmall is for quick runs: hundreds of thousands of edges.
	ScaleSmall
	// ScaleDefault is the evaluation scale: millions of edges.
	ScaleDefault
)

var scaleNames = []string{"test", "small", "default"}

// String names the scale as the tools' -scale flag spells it.
func (s InputScale) String() string { return scaleNames[s] }

// Set parses a scale name, so an InputScale is a flag.Value.
func (s *InputScale) Set(name string) error {
	i := slices.Index(scaleNames, name)
	if i < 0 {
		return fmt.Errorf("unknown scale %q (want test, small or default)", name)
	}
	*s = InputScale(i)
	return nil
}

// Input names the three standard graph inputs of Table 2.
const (
	InputLink = "link"
	InputRMAT = "rmat"
	InputRoad = "road"
)

// GraphInputs lists the standard input names.
var GraphInputs = []string{InputLink, InputRMAT, InputRoad}

// edgesFor generates the directed edge list of a named input.
func edgesFor(w *core.Worker, name string, scale InputScale, seed uint64) ([]Edge, int32) {
	switch name {
	case InputLink:
		var n, deg int
		switch scale {
		case ScaleTest:
			n, deg = 500, 8
		case ScaleSmall:
			n, deg = 20_000, 20
		default:
			n, deg = 100_000, 20
		}
		return PowerLaw(w, n, deg, seed), int32(n)
	case InputRMAT:
		var sc, ef int
		switch scale {
		case ScaleTest:
			sc, ef = 9, 6
		case ScaleSmall:
			sc, ef = 14, 6
		default:
			sc, ef = 17, 6
		}
		return RMAT(w, sc, ef, seed), int32(1 << sc)
	case InputRoad:
		var gw, gh int
		switch scale {
		case ScaleTest:
			gw, gh = 30, 20
		case ScaleSmall:
			gw, gh = 160, 150
		default:
			gw, gh = 500, 400
		}
		return RoadGrid(w, gw, gh, seed), int32(gw * gh)
	}
	panic("graph: unknown input " + name)
}

// LoadUndirected builds the symmetrized CSR form of a named input, as
// used by mis, mm, sf, msf, bfs and sssp.
func LoadUndirected(w *core.Worker, name string, scale InputScale, seed uint64) *Graph {
	edges, n := edgesFor(w, name, scale, seed)
	sym := Symmetrize(w, edges)
	return BuildCSR(w, n, sym)
}

// LoadUndirectedWeighted builds the symmetrized weighted CSR form of a
// named input (msf, sssp). Weights are symmetric: (u,v) and (v,u) carry
// the same weight.
func LoadUndirectedWeighted(w *core.Worker, name string, scale InputScale, seed uint64) *WGraph {
	edges, n := edgesFor(w, name, scale, seed)
	sym := Symmetrize(w, edges)
	wedges := AddWeights(w, sym, 1<<16, seed+1)
	return BuildWCSR(w, n, wedges)
}

// LoadUndirectedSorted is LoadUndirected with every row sorted — the
// canonical layout Compress starts from, used when comparing
// representations at identical row order.
func LoadUndirectedSorted(w *core.Worker, name string, scale InputScale, seed uint64) *Graph {
	edges, n := edgesFor(w, name, scale, seed)
	sym := Symmetrize(w, edges)
	var b Builder
	return b.BuildSorted(w, n, sym)
}

// UndirectedEdgeList returns the symmetrized edge list with each
// undirected edge appearing once (From < To), as consumed by mm and msf.
func UndirectedEdgeList(w *core.Worker, name string, scale InputScale, seed uint64) ([]Edge, int32) {
	edges, n := edgesFor(w, name, scale, seed)
	sym := Symmetrize(w, edges)
	once := sym[:0]
	for _, e := range sym {
		if e.From < e.To {
			once = append(once, e)
		}
	}
	return once, n
}
