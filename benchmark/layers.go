package main

import (
	"slices"

	"repro/benchmark/inputs"
	"repro/internal/bench"
	"repro/internal/core"
)

// layerMetrics collects per-layer metric values by name; the units are
// in the declarations of names.go.
type layerMetrics map[string]float64

// ratioTerms returns, for every group of the pass that runs variant
// beside its primary, p50(variant) ÷ p50(primary): the per-kernel terms
// of the paper's ratios.
func ratioTerms(p *prepared, ss []passSample, variant string) []float64 {
	var terms []float64
	for _, g := range p.groups {
		for _, k := range g[1:] {
			if k.variant == variant {
				terms = append(terms, ratio(kernelP50(ss, k), kernelP50(ss, g[0])))
			}
		}
	}
	return terms
}

// rpbOverDirect is the geometric mean over kernels of p50(rpb) ÷
// p50(direct), 0 when the pass runs no direct variant.
func rpbOverDirect(p *prepared, ss []passSample) float64 {
	return ratio(1, bench.GeoMean(ratioTerms(p, ss, "direct")))
}

// checkedOverUnchecked is the same for p50(ModeChecked) ÷ p50(ModeUnchecked).
func checkedOverUnchecked(p *prepared, ss []passSample) float64 {
	return bench.GeoMean(ratioTerms(p, ss, "checked"))
}

// taxRatio is the end-to-end form of the two: whichever of them the
// pass measures, and 1 when it has no reference variant to pay a tax over.
func taxRatio(p *prepared, ss []passSample) float64 {
	if r := rpbOverDirect(p, ss); r != 0 {
		return r
	}
	if r := checkedOverUnchecked(p, ss); r != 0 {
		return r
	}
	return 1
}

// fromPasses derives what the counters and timers read at the kernel
// boundaries of the passes ss say about each layer.
func (lm layerMetrics) fromPasses(p *prepared, ss []passSample) {
	for _, g := range p.groups {
		prim := g[0]
		if !slices.Contains(allKernels, prim.name) {
			continue // a build phase: its times are in the result's kernel lines
		}
		stem := "bench." + prim.name
		lm[stem+".s_p50"] = kernelP50(ss, prim)
		if slices.Contains(allocKernels, prim.name) {
			a := median(column(ss, func(s passSample) float64 { return s.kernelA[prim.idx] }))
			lm[stem+".allocs_per_run"] = a / float64(prim.inner)
		}
		for _, k := range g[1:] {
			switch v := kernelP50(ss, k); k.variant {
			case "direct", "checked":
				lm[stem+"."+k.variant+"_s_p50"] = v
			case "sync":
				lm[stem+".sync_over_unchecked"] = ratio(v, lm[stem+".s_p50"])
			}
		}
	}
	lm["rpb_over_direct"] = rpbOverDirect(p, ss)
	lm["checked_over_unchecked"] = checkedOverUnchecked(p, ss)

	for i, c := range schedCounterNames {
		lm["sched."+c+"_per_pass"] = median(column(ss, func(s passSample) float64 { return float64(s.total.sched[i]) }))
	}
	lm["sched.steal_ratio"] = ratio(lm["sched.steals_per_pass"], lm["sched.splits_per_pass"])
	lm["arena.heap_bytes_per_pass"] = median(column(ss, func(s passSample) float64 { return float64(s.total.heapBytes) }))
	lm["runtime.gc_cycles_per_pass"] = mean(column(ss, func(s passSample) float64 { return float64(s.total.gc) }))
}

// fromArenas records the per-worker arenas' shape after the last pass.
func (lm layerMetrics) fromArenas(p *core.Pool) {
	capacity, slabs := inputs.ArenaShape(p)
	lm["arena.capacity_kb"] = float64(capacity) / 1024
	lm["arena.slabs"] = float64(slabs)
}

// withUnits returns the metrics lm holds, each with its declared unit.
func (lm layerMetrics) withUnits() map[string]metric {
	out := make(map[string]metric)
	for _, d := range perLayer() {
		if v, ok := lm[d.name]; ok {
			out[d.name] = metric{v, d.unit}
		}
	}
	return out
}
