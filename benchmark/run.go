package main

import (
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64 // timed passes go on until this much wall time has passed, and for sz.minPasses
	traced  bool
	sz      sizes
	corrupt bool // tests only
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// kernelStat is the per-kernel line of a result: the terms behind the
// pass time and the two paper ratios.
type kernelStat struct {
	Kernel  string  `json:"kernel"`
	Variant string  `json:"variant"`
	Calls   int     `json:"calls_per_pass"`
	P50S    float64 `json:"s_p50"`
	P75S    float64 `json:"s_p75"`
	Samples int     `json:"samples"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seeded     bool              `json:"seeded"`
	Traced     bool              `json:"traced"`
	Workers    int               `json:"workers"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Setups     int               `json:"setups"`
	Warmup     int               `json:"warmup_passes"`
	Passes     int               `json:"timed_passes"` // sample count behind every percentile below
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Kernels    []kernelStat      `json:"kernels"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	WallS      float64           `json:"wall_s"`
}

// poolWorkers is T: the worker count of every workload but tax_1t.
func poolWorkers() int { return min(runtime.NumCPU(), 4) }

// runWorkload sets w up, runs its passes and returns what they
// measured, plus the spans of a traced run.
func runWorkload(cfg config, w *workload) (*runResult, []span) {
	start := time.Now()
	t := poolWorkers()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(t))
	defer core.SetMode(core.ModeUnchecked) // the switch is process-global
	e := &env{seed: cfg.seed, sz: cfg.sz, workers: t, traced: cfg.traced, corrupt: cfg.corrupt}
	if w.oneWorker {
		e.workers = 1
	}
	e.pool = core.NewPool(e.workers)
	defer e.pool.Close()
	if cfg.traced {
		e.tr = newTracer(w.name)
	}
	root := e.tr.begin("workload", map[string]string{"seed": strconv.FormatUint(cfg.seed, 10)})

	// Set-up, several times over: setup_s is the median, the last one is kept.
	var p *prepared
	var setupS []float64
	for i := 0; i < cfg.sz.setups; i++ {
		p = nil
		runtime.GC()
		id := e.tr.begin("setup", map[string]string{"repetition": strconv.Itoa(i)})
		t0 := time.Now()
		p = w.setup(e)
		setupS = append(setupS, time.Since(t0).Seconds())
		e.tr.end(id, nil)
	}
	p.index()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	inputMB := float64(ms.HeapAlloc) / 1e6

	r := &runner{w: w, e: e, p: p}
	for i := 0; i < cfg.sz.warmup; i++ {
		r.pass("warmup", i, p.groups, e.pool, e.workers, nil)
	}

	// Timed passes. In the traced run half of them record spans, in the
	// order plain, traced, traced, plain, so that the two halves see the
	// same drift and follow a pass of either variant order equally often;
	// their ratio is the tracing overhead.
	var plain, traced []passSample
	t0 := time.Now()
	for n := 0; n < cfg.sz.minPasses || time.Since(t0).Seconds() < cfg.seconds; n++ {
		if cfg.traced && (n%4 == 1 || n%4 == 2) {
			traced = append(traced, r.pass("traced", len(traced), p.groups, e.pool, e.workers, e.tr))
		} else {
			plain = append(plain, r.pass("timed", len(plain), p.groups, e.pool, e.workers, nil))
		}
	}

	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Seeded: w.seeded, Traced: cfg.traced,
		Workers: e.workers, GoMaxProcs: t, Setups: cfg.sz.setups, Warmup: cfg.sz.warmup, Passes: len(plain),
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	passS := column(plain, func(s passSample) float64 { return s.seconds })
	p50 := median(passS)
	var elems int64
	for _, g := range p.groups {
		for _, k := range g {
			if k.size != nil {
				elems += k.size()
			}
		}
	}
	res.EndToEnd["setup_s"] = metric{median(setupS), "s"}
	res.EndToEnd["pass_s_p50"] = metric{p50, "s"}
	res.EndToEnd["pass_s_p75"] = metric{percentile(passS, 0.75), "s"}
	res.EndToEnd["melem_per_s"] = metric{ratio(float64(elems)/1e6, p50), "Melem/s"}
	res.EndToEnd["allocs_per_pass"] = metric{median(column(plain, func(s passSample) float64 { return float64(s.total.mallocs) })), "count"}
	res.EndToEnd["input_mb"] = metric{inputMB, "MB"}
	res.EndToEnd["tax_ratio"] = metric{taxRatio(p, plain), "ratio"}

	layer := plain
	if cfg.traced {
		layer = traced
	}
	lm := layerMetrics{}
	lm.fromPasses(p, layer)
	res.Kernels = kernelStats(p, layer)
	if cfg.traced {
		lm["trace.overhead_ratio"] = ratio(median(column(traced, func(s passSample) float64 { return s.seconds })), p50)
		lm.fromArenas(e.pool)
		r.extras(lm, p50)
		lm.fromProbes(e, p50)
	}
	res.PerLayer = lm.withUnits()

	e.tr.end(root, nil)
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.WallS = time.Since(start).Seconds()
	if e.tr != nil {
		return res, e.tr.spans
	}
	return res, nil
}

// extras are the measurements only the traced run makes, each in a few
// passes of its own so that none of them disturbs the timed ones: the
// dynamic pattern census, the reference representation, and the same
// pass on a one-worker pool.
func (r *runner) extras(lm layerMetrics, p50 float64) {
	p, e, n := r.p, r.e, r.e.sz.extra

	core.ResetDynamicCounts()
	prev := core.EnableDynamicCensus(true)
	for i := 0; i < 2; i++ {
		r.pass("census", i, p.groups, e.pool, e.workers, e.tr)
	}
	core.EnableDynamicCensus(prev)
	for pat, c := range core.DynamicCounts() {
		lm["core.calls_per_pass."+patternName(pat)] = float64(c) / 2
	}

	if len(p.ref) > 0 {
		groups := make([][]*kernel, len(p.ref))
		for i, k := range p.ref {
			groups[i] = []*kernel{k}
		}
		r.pass("warmup", 0, groups, e.pool, e.workers, nil)
		var ref []passSample
		for i := 0; i < n; i++ {
			ref = append(ref, r.pass("reference", i, groups, e.pool, e.workers, e.tr))
		}
		for _, k := range p.ref {
			prim := p.primary(k.name)
			a, b := lm["bench."+k.name+".s_p50"], kernelP50(ref, k)
			if prim.variant == "plain" {
				a, b = b, a
			}
			lm["graph.comp_over_plain."+k.name] = ratio(a, b)
		}
	}

	one := core.NewPool(1)
	defer one.Close()
	r.pass("warmup", 0, p.groups, one, 1, nil) // a new pool's arenas start empty
	var solo []passSample
	for i := 0; i < n; i++ {
		solo = append(solo, r.pass("one_worker", i, p.groups, one, 1, e.tr))
	}
	lm["bench.pass_speedup_T_over_1"] = ratio(median(column(solo, func(s passSample) float64 { return s.seconds })), p50)
}

func column(ss []passSample, f func(passSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func kernelP50(ss []passSample, k *kernel) float64 {
	return median(column(ss, func(s passSample) float64 { return s.kernelS[k.idx] }))
}

// primary returns the first kernel of the group that runs name.
func (p *prepared) primary(name string) *kernel {
	for _, g := range p.groups {
		if g[0].name == name {
			return g[0]
		}
	}
	return nil
}

func kernelStats(p *prepared, ss []passSample) []kernelStat {
	var out []kernelStat
	for _, g := range p.groups {
		for _, k := range g {
			col := column(ss, func(s passSample) float64 { return s.kernelS[k.idx] })
			out = append(out, kernelStat{k.name, k.variant, k.inner, median(col), percentile(col, 0.75), len(col)})
		}
	}
	return out
}
