package main

import (
	"repro/benchmark/inputs"
	"repro/internal/graph"
)

// fromProbes runs the probes (package inputs, plus the graph probes
// below) and the computed metric that rests on them. passP50 is the
// workload's median pass time.
func (lm layerMetrics) fromProbes(e *env, passP50 float64) {
	id := e.tr.begin("probes", nil)
	defer e.tr.end(id, nil)
	pe := inputs.Env{
		Pool: e.pool, Workers: e.workers, Seed: e.seed, N: e.sz.probeN, Scale: e.sz.spec,
		Span: func(probe string) func() {
			id := e.tr.begin("probe", map[string]string{"probe": probe})
			return func() { e.tr.end(id, nil) }
		},
	}
	inputs.Run(pe, lm)
	lm["sched.est_share"] = ratio(
		lm["sched.splits_per_pass"]*lm["sched.join_ns"]+lm["sched.parks_per_pass"]*lm["sched.park_wake_us"]*1e3,
		passP50*1e9)
	lm.graphProbes(e, pe)
}

// graphProbes builds the probes' own R-MAT graph through the same
// pipeline the graph workloads use — its phase times are the write-side
// metrics — and streams its rows for the read-side ones.
func (lm layerMetrics) graphProbes(e *env, pe inputs.Env) {
	var s *graphStack
	phaseS := map[string][]float64{}
	for i := 0; i < e.sz.setups; i++ {
		end := pe.Span("graph pipeline")
		secs := map[string]float64{}
		s = newGraphStack(e.sz.probeScale, e.sz.edgeFactor, e.seed)
		runPhases(e, secs, s.genPhase())
		runPhases(e, secs, s.buildPhases()...)
		runPhases(e, secs, s.traversalPhases(1)...)
		end()
		for name, v := range secs {
			phaseS[name] = append(phaseS[name], v)
		}
	}
	for _, ph := range writePhases {
		lm["graph."+ph+"_s"] = median(phaseS[ph])
	}
	m := s.g.NumEdges()
	lm["graph.encode_medges_per_s"] = ratio(2*float64(m)/1e6, lm["graph.compress_s"]+lm["graph.compress_transpose_s"])
	lm["graph.bytes_per_edge_plain"] = float64(s.g.FootprintBytes()) / float64(m)
	lm["graph.bytes_per_edge_comp"] = float64(s.cg.FootprintBytes()) / float64(m)

	stream := func(name string, a graph.Adjacency) float64 {
		buf := make([]int32, a.MaxDegree())
		return inputs.Probe(pe, name, int(m), nil, func() {
			var x int32
			for v := int32(0); v < a.NumVertices(); v++ {
				if row := a.RowInto(v, buf); len(row) > 0 {
					x ^= row[len(row)-1]
				}
			}
			inputs.Keep(uint64(uint32(x)))
		})
	}
	lm["graph.decode_plain_edges_per_ns"] = ratio(1, stream("graph.Graph.RowInto", s.g))
	lm["graph.decode_comp_edges_per_ns"] = ratio(1, stream("graph.CGraph.RowInto", s.cg))

	// Every second vertex marked: CountIn walks whole rows. One vertex in
	// 64 marked: FindFirstIn stops early on long rows, never on short ones.
	half := make([]uint64, (int(s.n)+63)/64)
	sparse := make([]uint64, len(half))
	for i := range half {
		half[i] = 0x5555555555555555
		sparse[i] = 1
	}
	lm["graph.countin_comp_edges_per_ns"] = ratio(1, inputs.Probe(pe, "graph.CGraph.CountIn", int(m), nil, func() {
		var c int64
		for v := int32(0); v < s.n; v++ {
			c += s.cg.CountIn(v, half)
		}
		inputs.Keep(uint64(c))
	}))
	lm["graph.findfirst_comp_ns_per_row"] = inputs.Probe(pe, "graph.CGraph.FindFirstIn", int(s.n), nil, func() {
		var c int32
		for v := int32(0); v < s.n; v++ {
			c += s.cg.FindFirstIn(v, sparse)
		}
		inputs.Keep(uint64(uint32(c)))
	})
}
