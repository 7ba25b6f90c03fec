package main

import (
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
)

// variant is one way of running a registered kernel.
type variant struct {
	name   string
	mode   core.Mode
	direct bool // the hand-rolled baseline instead of the library expression
}

var (
	vRPB     = variant{"rpb", core.ModeUnchecked, false}
	vDirect  = variant{"direct", core.ModeUnchecked, true}
	vChecked = variant{"checked", core.ModeChecked, false}
	vSync    = variant{"sync", core.ModeSynchronized, false}
)

// specSetup prepares registered kernels through bench.Spec.Make, whose
// input seeds are constants inside internal/bench.
type specSetup struct {
	e *env
	p *prepared
}

func newSpecSetup(e *env) *specSetup { return &specSetup{e: e, p: &prepared{}} }

// edgeCounts caches inputSize's graph sizes for the life of the process.
var edgeCounts = map[sizedInput]int64{}

type sizedInput struct {
	input string
	scale bench.Scale
}

// inputSize is the size a kernel's input is credited with: keys,
// characters, points, or directed edges. The edge count is nominal: it
// comes from generating the input once more under a seed of this
// package's, because the kernels' own seeds are private to
// internal/bench; duplicate random edges make the two differ by a
// fraction of a percent. Generating is slow, so a run asks only after
// its passes, outside set-up and every timer.
func inputSize(name, input string, scale bench.Scale) int64 {
	switch name {
	case "sort", "isort", "dedup", "hist":
		return int64(bench.SeqSize(scale))
	case "sa", "lrs", "bw":
		return int64(bench.TextSize(scale))
	case "dr":
		return int64(bench.PointCount(scale))
	}
	key := sizedInput{input, scale}
	if _, ok := edgeCounts[key]; !ok {
		once, _ := graph.UndirectedEdgeList(nil, input, scale, 1)
		edgeCounts[key] = 2 * int64(len(once))
	}
	return edgeCounts[key]
}

// add makes one instance of the named kernel and appends a group that
// runs it under each of vs.
func (s *specSetup) add(name, input string, scale bench.Scale, vs ...variant) {
	spec, err := bench.Find(name)
	if err != nil {
		panic(err) // the registry is fixed at init: an unknown name is a bug here
	}
	id := s.e.tr.begin("make", map[string]string{"kernel": name, "input": input})
	inst := spec.Make(input, scale)
	s.e.tr.end(id, nil)
	rep := ""
	if slices.Contains(graph.GraphInputs, input) {
		rep = "plain"
	}
	size := func() int64 { return inputSize(name, input, scale) }
	var g []*kernel
	for _, v := range vs {
		k := &kernel{name: name, variant: v.name, rep: rep, mode: v.mode, inner: 1, size: size}
		if inst.Reset != nil {
			k.reset = func(int) { inst.Reset() }
		}
		if v.direct {
			k.run = func(_ *core.Worker, threads int, _ int) { inst.RunDirect(threads) }
		} else {
			k.run = func(w *core.Worker, _ int, _ int) { inst.RunLibrary(w) }
		}
		k.verify = func(int) error { return inst.Verify() }
		g = append(g, k)
	}
	s.p.groups = append(s.p.groups, g)
}

// graphSetup builds the shared R-MAT stack of graph_plain and
// graph_comp and hands back the kernels over the chosen representation.
// In the traced run the other representation stays alive as the
// reference for graph.comp_over_plain.
func graphSetup(e *env, comp bool) *prepared {
	p := &prepared{}
	s := newGraphStack(e.sz.graphScale, e.sz.edgeFactor, e.seed)
	runPhases(e, nil, s.genPhase())
	runPhases(e, nil, s.buildPhases()...)
	runPhases(e, nil, s.traversalPhases(e.sz.roots)...)
	if e.corrupt {
		s.or.pr[0]++
	}
	plain := func() []*kernel { return traversalKernels("plain", e.sz.repeats, s.g, s.tg, s.dag, s.wg, s.or) }
	packed := func() []*kernel { return traversalKernels("comp", e.sz.repeats, s.cg, s.ctg, s.cdag, s.cwg, s.or) }
	mine, other := plain, packed
	if comp {
		mine, other = packed, plain
	}
	for _, k := range mine() {
		p.groups = append(p.groups, []*kernel{k})
	}
	if e.traced {
		p.ref = other()
	}
	return p
}

var workloads = []*workload{
	{
		name:      "tax_1t",
		why:       "one worker, library and hand-rolled variant of 11 kernels: no steals or parks, so what is left is the pattern layer against plain loops",
		oneWorker: true,
		setup: func(e *env) *prepared {
			s := newSpecSetup(e)
			for _, k := range [][2]string{
				{"isort", "exponential"}, {"dedup", "exponential"}, {"hist", "exponential"}, {"sort", "exponential"},
				{"sa", "wiki"}, {"bw", "wiki"}, {"mis", graph.InputRoad}, {"msf", graph.InputRMAT},
				{"mm", graph.InputRMAT}, {"sf", graph.InputLink}, {"dr", "kuzmin"},
			} {
				s.add(k[0], k[1], e.sz.spec, vRPB, vDirect)
			}
			return s.p
		},
	},
	{
		name: "checked",
		why:  "kernels with SngInd/RngInd check sites under unchecked and checked mode: the uniqueness and monotonicity checks do work here and in no other workload",
		setup: func(e *env) *prepared {
			s := newSpecSetup(e)
			s.add("isort", "exponential", e.sz.spec, vRPB, vChecked)
			s.add("sa", "wiki", e.sz.spec, vRPB, vChecked)
			s.add("lrs", "wiki", e.sz.spec, vRPB, vChecked)
			s.add("bw", "wiki", e.sz.spec, vRPB, vChecked)
			s.add("sort", "exponential", e.sz.spec, vRPB, vChecked)
			s.add("hist", "exponential", e.sz.spec, vRPB, vSync)
			return s.p
		},
	},
	{
		name:   "graph_plain",
		why:    "BFS, SSSP, PageRank and triangle counting over plain CSR rows of an R-MAT graph: scheduler, MultiQueue and arena work, row decode does not; the control for graph_comp",
		seeded: true,
		setup:  func(e *env) *prepared { return graphSetup(e, false) },
	},
	{
		name:   "graph_comp",
		why:    "the same graph, seed, kernels and oracles over group-varint compressed rows: row decode does most of the work, and input_mb shows what compression saves",
		seeded: true,
		setup:  func(e *env) *prepared { return graphSetup(e, true) },
	},
	{
		name: "road_rounds",
		why:  "eight kernels on a high-diameter road grid: hundreds of short rounds per run, so per-round costs (split, park/wake, MultiQueue construction) are the largest share anywhere",
		setup: func(e *env) *prepared {
			s := newSpecSetup(e)
			for _, k := range []string{"bfs", "sssp", "mis", "mm", "sf", "kcore", "cc", "msf"} {
				s.add(k, graph.InputRoad, e.sz.road, vRPB)
			}
			return s.p
		},
	},
	{
		name:   "build",
		why:    "the pass is the construction pipeline (symmetrize, CSR build, transpose, compress, weights): the write side of the graph layer, where an encoder pays for a decoder's gain",
		seeded: true,
		setup: func(e *env) *prepared {
			p := &prepared{}
			s := newGraphStack(e.sz.buildScale, e.sz.edgeFactor, e.seed)
			runPhases(e, nil, s.genPhase())
			for _, ph := range s.buildPhases() {
				k := &kernel{name: ph.name, variant: "rpb", rep: "plain", inner: 1}
				if ph.name == "symmetrize" {
					k.size = func() int64 { return int64(len(s.sym)) } // the pass is credited with the symmetrized edges
				}
				k.run = func(w *core.Worker, _ int, _ int) { ph.run(w) }
				k.verify = func(int) error { return s.verifyPhase(ph.name) }
				p.groups = append(p.groups, []*kernel{k})
			}
			return p
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
