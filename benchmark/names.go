package main

import "repro/internal/core"

// metricDef declares one metric. BENCHMARK.json repeats these
// declarations for the acceptance driver; a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the quantities a user of the system sees, reported for
// every workload by the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s_p50", "s", "lower", 0.15},
	{"pass_s_p75", "s", "lower", 0.20},
	{"melem_per_s", "Melem/s", "higher", 0.15},
	{"allocs_per_pass", "count", "lower", 0.10},
	{"input_mb", "MB", "lower", 0.02},
	// The paper's two ratios under one name, because an end-to-end metric
	// has to exist on every workload: rpb ÷ direct on tax_1t (Fig 4a),
	// checked ÷ unchecked on checked (Fig 5a), and exactly 1 on a workload
	// whose pass has no reference variant.
	{"tax_ratio", "ratio", "lower", 0.05},
}

var (
	allKernels     = []string{"bfs", "sssp", "pr", "tc", "cc", "kcore", "mis", "mm", "sf", "msf", "sort", "isort", "dedup", "hist", "sa", "lrs", "bw", "dr"}
	directKernels  = []string{"isort", "dedup", "hist", "sort", "sa", "bw", "mis", "msf", "mm", "sf", "dr"}
	checkedKernels = []string{"isort", "sa", "lrs", "bw", "sort"}
	allocKernels   = []string{"kcore", "sort", "sa", "dr", "sssp", "bfs", "tc", "pr"}
	compKernels    = []string{"bfs", "sssp", "pr", "tc"}
	corePrimitives = []string{
		"forrange_ns_per_elem", "forrange_over_rawloop", "reduce_ns_per_elem", "scan_ns_per_elem",
		"pack_ns_per_elem", "indforeach_unchecked_ns_per_elem", "indforeach_checked_ns_per_elem",
		"indchunks_checked_ns_per_chunk", "writemin_ns_per_op", "sort_ns_per_elem",
	}
	writePhases = []string{"gen", "symmetrize", "build_sorted", "transpose", "compress", "compress_transpose", "weighted", "dag", "oracle"}
)

// patternName is a pattern's name inside a metric name ("D&C" is not a
// legal one).
func patternName(p core.Pattern) string {
	if p == core.DC {
		return "DC"
	}
	return p.String()
}

// perLayer lists the metrics of single layers, reported by the traced
// run. The layers are the module's packages. A metric that does not
// apply to a workload (a kernel it does not run) reads 0 there.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name: name, unit: unit, better: better}) }

	// bench: the kernels proper.
	for _, k := range allKernels {
		add("bench."+k+".s_p50", "s", "lower")
	}
	for _, k := range directKernels {
		add("bench."+k+".direct_s_p50", "s", "lower")
	}
	for _, k := range checkedKernels {
		add("bench."+k+".checked_s_p50", "s", "lower")
	}
	for _, k := range allocKernels {
		add("bench."+k+".allocs_per_run", "count", "lower")
	}
	add("bench.hist.sync_over_unchecked", "ratio", "lower")
	add("bench.pass_speedup_T_over_1", "ratio", "higher")
	add("rpb_over_direct", "ratio", "lower")
	add("checked_over_unchecked", "ratio", "lower")

	// sched: counter deltas per pass, probes, and one computed share.
	for _, c := range schedCounterNames {
		add("sched."+c+"_per_pass", "count", "lower")
	}
	add("sched.steal_ratio", "ratio", "higher")
	add("sched.for_ns_per_iter", "ns", "lower")
	add("sched.forbody_ns_per_iter", "ns", "lower")
	add("sched.join_ns", "ns", "lower")
	add("sched.do_roundtrip_us", "us", "lower")
	add("sched.park_wake_us", "us", "lower")
	add("sched.est_share", "ratio", "lower")

	// core: the pattern layer, probed on the pool and sequentially.
	for _, prefix := range []string{"core.", "core.seq."} {
		for _, p := range corePrimitives {
			unit := "ns"
			if p == "forrange_over_rawloop" {
				unit = "ratio"
			}
			add(prefix+p, unit, "lower")
		}
	}
	for _, p := range core.Patterns {
		add("core.calls_per_pass."+patternName(p), "count", "lower")
	}

	// arena and the heap it is there to spare.
	add("arena.alloc_release_ns", "ns", "lower")
	add("arena.capacity_kb", "KB", "lower")
	add("arena.slabs", "count", "lower")
	add("arena.heap_bytes_per_pass", "B", "lower")
	add("runtime.gc_cycles_per_pass", "count", "lower")

	// mq.
	add("mq.process_mitems_per_s", "Mitem/s", "higher")
	add("mq.locks_per_item", "ratio", "lower")
	add("mq.empty_pop_ratio", "ratio", "lower")
	add("mq.pushpop_ns", "ns", "lower")
	add("mq.sssp_locks_per_item", "ratio", "lower")

	// graph, read side.
	add("graph.decode_plain_edges_per_ns", "edge/ns", "higher")
	add("graph.decode_comp_edges_per_ns", "edge/ns", "higher")
	add("graph.countin_comp_edges_per_ns", "edge/ns", "higher")
	add("graph.findfirst_comp_ns_per_row", "ns", "lower")
	add("graph.bytes_per_edge_plain", "B/edge", "lower")
	add("graph.bytes_per_edge_comp", "B/edge", "lower")
	for _, k := range compKernels {
		add("graph.comp_over_plain."+k, "ratio", "lower")
	}

	// graph, write side: the phases of the construction pipeline.
	for _, ph := range writePhases {
		add("graph."+ph+"_s", "s", "lower")
	}
	add("graph.encode_medges_per_s", "Medge/s", "higher")

	// substrate packages under the kernels.
	add("radix.sortpairs_ns_per_elem", "ns", "lower")
	add("hashtable.insert_ns", "ns", "lower")
	add("unionfind.union_ns", "ns", "lower")
	add("specfor.rounds_per_run", "count", "lower")
	add("suffix.sa_ns_per_char", "ns", "lower")

	add("trace.overhead_ratio", "ratio", "lower")
	return out
}
