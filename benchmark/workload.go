package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// sizes fixes how much work each workload does. The full sizes are the
// benchmark; the test sizes let `go test` run every workload in seconds.
type sizes struct {
	spec       bench.Scale // tax_1t, checked: bench.Spec.Make scale
	road       bench.Scale // road_rounds
	graphScale int         // graph_plain, graph_comp: R-MAT with 2^scale vertices
	buildScale int         // build
	probeScale int         // the probes' own graph
	edgeFactor int
	roots      int // BFS sources per pass
	repeats    int // SSSP, PageRank and triangle-count runs per pass
	probeN     int // array length of the element-wise probes
	setups     int // set-up repetitions (setup_s is their median)
	warmup     int // untimed passes
	minPasses  int // timed passes, even when they outlast -seconds
	extra      int // passes of each extra traced measurement
}

var (
	fullSizes = sizes{bench.ScaleSmall, bench.ScaleDefault, 15, 15, 14, 16, 2, 2, 1 << 20, 3, 3, 40, 5}
	testSizes = sizes{bench.ScaleTest, bench.ScaleTest, 10, 9, 8, 8, 2, 1, 1 << 12, 1, 1, 2, 2}
)

// env is what a workload's set-up sees.
type env struct {
	seed    uint64
	sz      sizes
	workers int // pool size: min(nproc, 4), or 1 for tax_1t
	pool    *core.Pool
	tr      *tracer // nil in the untraced run
	traced  bool
	corrupt bool // tests only: damage one oracle so that verification must fail
}

// kernel is one timed entry of a pass: a kernel under one variant. The
// timer covers run only; reset and verify sit outside it.
type kernel struct {
	name    string // metric stem: "bfs", "isort", "compress"
	variant string // "rpb", "direct", "checked", "sync", "plain", "comp"
	rep     string // representation traversed, "" for non-graph kernels
	mode    core.Mode
	inner   int          // timed calls per pass
	size    func() int64 // input size credited to melem_per_s per pass; asked after the passes, nil for none
	reset   func(i int)
	run     func(w *core.Worker, threads int, i int)
	verify  func(i int) error
	idx     int // position in prepared.flat
}

// prepared is a workload after set-up: ready to run passes.
type prepared struct {
	// groups is the pass: the kernels of one group run back to back, in
	// reverse order on odd passes, so that the two variants a ratio
	// compares alternate who goes first. The first kernel of a group is
	// its primary variant.
	groups [][]*kernel
	// ref, in the traced run only, is a second kernel list timed in
	// passes of its own for a cross-representation ratio.
	ref  []*kernel
	flat []*kernel
}

func (p *prepared) index() {
	p.flat = p.flat[:0]
	for _, g := range p.groups {
		p.flat = append(p.flat, g...)
	}
	p.flat = append(p.flat, p.ref...)
	for i, k := range p.flat {
		k.idx = i
	}
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name      string
	why       string
	seeded    bool // false: inputs come from bench.Spec.Make, whose seeds are constants
	oneWorker bool // a pool of one worker instead of T
	setup     func(e *env) *prepared
}

// counters are the layer counters read at every span boundary.
type counters struct {
	mallocs, heapBytes uint64
	gc                 uint32
	sched              [6]int64 // tasks, splits, steals, parks, wake_skips, overflows
}

var schedCounterNames = [6]string{"tasks", "splits", "steals", "parks", "wake_skips", "overflows"}

func readSched(p *core.Pool, c *counters) {
	c.sched = [6]int64{}
	for _, ws := range p.Stats() {
		c.sched[0] += ws.Executed
		c.sched[1] += ws.SplitsSpawned
		c.sched[2] += ws.Stolen
		c.sched[3] += ws.Parked
		c.sched[4] += ws.WakeSkips
		c.sched[5] += ws.Overflows
	}
}

func readMem(c *counters) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.heapBytes, c.gc = ms.Mallocs, ms.TotalAlloc, ms.NumGC
}

// add accumulates the delta b-a into c.
func (c *counters) add(a, b *counters) {
	c.mallocs += b.mallocs - a.mallocs
	c.heapBytes += b.heapBytes - a.heapBytes
	c.gc += b.gc - a.gc
	for i := range c.sched {
		c.sched[i] += b.sched[i] - a.sched[i]
	}
}

func (c *counters) asMap() map[string]float64 {
	m := map[string]float64{
		"mallocs": float64(c.mallocs), "heap_bytes": float64(c.heapBytes), "gc_cycles": float64(c.gc),
	}
	for i, n := range schedCounterNames {
		m[n] = float64(c.sched[i])
	}
	return m
}

// passSample is what one pass measured.
type passSample struct {
	seconds float64   // sum of the kernels' timed intervals
	kernelS []float64 // per kernel (prepared.flat index), summed over its inner calls
	kernelA []float64 // mallocs per kernel
	total   counters  // summed over the kernel calls
}

// runner drives the passes of one prepared workload.
type runner struct {
	w         *workload
	e         *env
	p         *prepared
	attempted int
	failed    int
	failures  []string
}

// pass runs every kernel of groups once (times its inner count) and
// verifies each call after its timer stops. The whole pass runs on one
// worker of pool, as one Do: the driver is a pool task like the rpb
// command's, and a one-worker pool never parks inside a pass. kind
// labels the pass in failures and spans; n is its number within that
// kind.
func (r *runner) pass(kind string, n int, groups [][]*kernel, pool *core.Pool, threads int, tr *tracer) passSample {
	var s passSample
	pool.Do(func(w *core.Worker) { s = r.passOn(w, kind, n, groups, threads, tr) })
	return s
}

func (r *runner) passOn(w *core.Worker, kind string, n int, groups [][]*kernel, threads int, tr *tracer) passSample {
	pool := w.Pool()
	s := passSample{kernelS: make([]float64, len(r.p.flat)), kernelA: make([]float64, len(r.p.flat))}
	runtime.GC()
	var passID int
	if tr != nil {
		tr.pass = n
		passID = tr.begin("pass", map[string]string{"kind": kind})
	}
	for _, g := range groups {
		for j := range g {
			k := g[j]
			if n%2 == 1 {
				k = g[len(g)-1-j]
			}
			for i := 0; i < k.inner; i++ {
				if k.reset != nil {
					k.reset(i)
				}
				core.SetMode(k.mode)
				var c0, c1, d counters
				readSched(pool, &c0)
				readMem(&c0)
				t0 := time.Now()
				k.run(w, threads, i)
				t1 := time.Now()
				readMem(&c1)
				readSched(pool, &c1)
				d.add(&c0, &c1)
				s.total.add(&c0, &c1)
				dt := t1.Sub(t0).Seconds()
				s.seconds += dt
				s.kernelS[k.idx] += dt
				s.kernelA[k.idx] += float64(d.mallocs)
				if tr != nil {
					tr.timed("kernel", t0, t1, map[string]string{
						"kernel": k.name, "variant": k.variant, "mode": k.mode.String(),
						"representation": k.rep, "threads": strconv.Itoa(threads), "call": strconv.Itoa(i),
					}, d.asMap())
				}
				r.attempted++
				if err := k.verify(i); err != nil {
					r.failed++
					r.failures = append(r.failures, fmt.Sprintf(
						"workload %s kernel %s/%s %s pass %d call %d seed %d: %v",
						r.w.name, k.name, k.variant, kind, n, i, r.e.seed, err))
				}
			}
		}
	}
	if tr != nil {
		m := s.total.asMap()
		m["pass_s"] = s.seconds
		tr.end(passID, m)
		tr.pass = -1
	}
	return s
}
