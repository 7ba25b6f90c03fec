// Steady-state allocation benchmarks: the memory-telemetry layer's data
// source (docs/MEMORY.md). Every BenchmarkMem* below measures allocs/op
// and B/op of a hot path in its steady state — pool created once, one
// warm-up run outside the timer, then b.N timed runs reusing per-worker
// scratch — so the numbers isolate per-round allocation behavior from
// pool and input setup. `make bench-mem` exports them to BENCH_mem.json
// via cmd/benchjson; CI diffs that file against the committed baseline
// with `benchjson -gate` so a hot path cannot silently start allocating
// again. BENCH_mem_before.json preserves the same benchmarks measured
// before the arena conversion, rendered side by side by
// `rpbreport -what mem`.
package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/radix"
)

// memThreads is the pool size for the steady-state benchmarks. Two
// workers keep the concurrent machinery (stealing, lazy splits, arena
// checkout on more than one worker) engaged without drowning the
// numbers in split noise on the single-CPU CI host.
const memThreads = 2

// benchMemKernel measures one registered benchmark's library expression
// in its steady state: instance and pool built once, a warm-up round
// outside the timer, then b.N timed rounds (Reset + RunLibrary) on the
// same pool — the round structure under which per-worker scratch reuse
// is observable. The run is verified once after the timer stops.
func benchMemKernel(b *testing.B, name string) {
	spec, err := bench.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	core.SetMode(core.ModeUnchecked)
	inst := spec.Make(spec.Inputs[0], bench.ScaleSmall)
	pool := core.NewPool(memThreads)
	defer pool.Close()
	b.ReportAllocs()
	pool.Do(func(w *core.Worker) {
		runOnce := func() {
			if inst.Reset != nil {
				inst.Reset()
			}
			inst.RunLibrary(w)
		}
		runOnce() // warm-up: grow scratch, fill caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce()
		}
		b.StopTimer()
	})
	if inst.Verify != nil {
		if err := inst.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemKernelSort(b *testing.B)  { benchMemKernel(b, "sort") }
func BenchmarkMemKernelIsort(b *testing.B) { benchMemKernel(b, "isort") }
func BenchmarkMemKernelHist(b *testing.B)  { benchMemKernel(b, "hist") }
func BenchmarkMemKernelDedup(b *testing.B) { benchMemKernel(b, "dedup") }
func BenchmarkMemKernelMIS(b *testing.B)   { benchMemKernel(b, "mis") }
func BenchmarkMemKernelMSF(b *testing.B)   { benchMemKernel(b, "msf") }
func BenchmarkMemKernelSF(b *testing.B)    { benchMemKernel(b, "sf") }
func BenchmarkMemKernelSA(b *testing.B)    { benchMemKernel(b, "sa") }

// benchMemLoop runs body b.N times on one pool worker after an untimed
// warm-up call — the steady-state harness for primitive-level
// measurements.
func benchMemLoop(b *testing.B, body func(w *core.Worker)) {
	pool := core.NewPool(memThreads)
	defer pool.Close()
	b.ReportAllocs()
	pool.Do(func(w *core.Worker) {
		body(w) // warm-up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body(w)
		}
		b.StopTimer()
	})
}

const memPrimN = 1 << 18

// BenchmarkMemScanExclusive: in-place exclusive sum scan. Steady-state
// target after the arena conversion: 0 allocs/op.
func BenchmarkMemScanExclusive(b *testing.B) {
	xs := make([]int32, memPrimN)
	benchMemLoop(b, func(w *core.Worker) {
		for i := range xs {
			xs[i] = 1
		}
		if got := core.ScanExclusive(w, xs); got != memPrimN {
			panic("scan total mismatch")
		}
	})
}

// BenchmarkMemScanInclusive: in-place inclusive sum scan.
func BenchmarkMemScanInclusive(b *testing.B) {
	xs := make([]int32, memPrimN)
	benchMemLoop(b, func(w *core.Worker) {
		for i := range xs {
			xs[i] = 1
		}
		core.ScanInclusive(w, xs)
	})
}

// BenchmarkMemScanInclusiveInto: destination-passing inclusive scan —
// source untouched, output in a caller-reused buffer. 0 allocs/op.
func BenchmarkMemScanInclusiveInto(b *testing.B) {
	src := make([]int32, memPrimN)
	for i := range src {
		src[i] = 1
	}
	dst := make([]int32, memPrimN)
	benchMemLoop(b, func(w *core.Worker) {
		if got := core.ScanInclusiveInto(w, dst, src); got != memPrimN {
			panic("scan total mismatch")
		}
	})
}

// BenchmarkMemPackIndexInto: index pack into a caller-reused
// destination. 0 allocs/op once the buffer has warmed.
func BenchmarkMemPackIndexInto(b *testing.B) {
	var idx []int32
	benchMemLoop(b, func(w *core.Worker) {
		idx = core.PackIndexInto(w, memPrimN, func(i int) bool { return i%3 == 0 }, idx)
		if len(idx) == 0 {
			panic("empty pack")
		}
	})
}

// BenchmarkMemPackIndex: index pack with a fresh output slice per call
// (the allocating form; contrast with BenchmarkMemPackIndexInto).
func BenchmarkMemPackIndex(b *testing.B) {
	benchMemLoop(b, func(w *core.Worker) {
		idx := core.PackIndex(w, memPrimN, func(i int) bool { return i%3 == 0 })
		if len(idx) == 0 {
			panic("empty pack")
		}
	})
}

// BenchmarkMemRadixSortPairs: one full radix sort of 32-bit keys with
// carried values — the counting passes and ping-pong buffers are the
// scratch the radix.Scratch conversion reuses.
func BenchmarkMemRadixSortPairs(b *testing.B) {
	keys := make([]uint64, memPrimN)
	vals := make([]int32, memPrimN)
	benchMemLoop(b, func(w *core.Worker) {
		for i := range keys {
			keys[i] = uint64(uint32(i * 2654435761))
			vals[i] = int32(i)
		}
		radix.SortPairs(w, keys, vals, 32)
	})
}

// BenchmarkMemForBlocks: the Stride engine with a body built once —
// the call itself rides a per-worker box and must allocate nothing.
func BenchmarkMemForBlocks(b *testing.B) {
	xs := make([]int32, memPrimN)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = int32(i)
		}
	}
	benchMemLoop(b, func(w *core.Worker) { core.ForBlocks(w, 0, memPrimN, 0, body) })
}

// BenchmarkMemPackMaskInto: the pack engine through its range-bodied
// entry, verdict bitmask and block counts from the worker's arena.
// 0 allocs/op once the destination has warmed.
func BenchmarkMemPackMaskInto(b *testing.B) {
	var idx []int32
	mask := func(lo, hi int) uint64 {
		var m uint64
		for i := lo; i < hi; i++ {
			if i%3 == 0 {
				m |= 1 << uint(i-lo)
			}
		}
		return m
	}
	benchMemLoop(b, func(w *core.Worker) {
		idx = core.PackMaskInto(w, memPrimN, mask, idx)
		if len(idx) == 0 {
			panic("empty pack")
		}
	})
}

// memPerm is a fixed permutation of [0, memPrimN): an odd multiplier
// modulo a power of two.
func memPerm() []int32 {
	p := make([]int32, memPrimN)
	for i := range p {
		p[i] = int32(uint32(i) * 2654435761 % memPrimN)
	}
	return p
}

// BenchmarkMemScatter: the closure-free SngInd scatter. 0 allocs/op.
func BenchmarkMemScatter(b *testing.B) {
	perm, vals, out := memPerm(), make([]int32, memPrimN), make([]int32, memPrimN)
	benchMemLoop(b, func(w *core.Worker) { core.ScatterUnchecked(w, out, perm, vals) })
}

// BenchmarkMemIndForEachChecked: the checked SngInd rung. The checker's
// bitmap lanes are an arena checkout and its loop body rides a box, so
// a passing check allocates nothing; the one allocation per call is the
// wrapper closure that carries f through ForBlocks, as before.
func BenchmarkMemIndForEachChecked(b *testing.B) {
	perm, out := memPerm(), make([]int32, memPrimN)
	body := func(i int, slot *int32) { *slot = int32(i) }
	benchMemLoop(b, func(w *core.Worker) {
		if err := core.IndForEach(w, out, perm, body); err != nil {
			panic(err)
		}
	})
}
