// Package bench is the RPB reproduction harness: it registers the 18
// benchmarks of Table 1, each with two expressions of the same
// algorithm —
//
//   - Library ("RPB"): written against the internal/core pattern
//     primitives, honoring the suite-wide core.Mode switch
//     (unchecked / checked / synchronized), scheduled by the
//     work-stealing pool;
//   - Direct ("baseline"): hand-rolled with goroutines, WaitGroups and
//     raw atomics, statically chunked, no pattern library — playing the
//     role PBBS/OpenCilk C++ plays in the paper's Fig 4;
//
// plus a verifier, so every timed run is checked against an oracle.
package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Scale selects input sizes, mirroring graph.InputScale for non-graph
// inputs.
type Scale = graph.InputScale

const (
	ScaleTest    = graph.ScaleTest
	ScaleSmall   = graph.ScaleSmall
	ScaleDefault = graph.ScaleDefault
)

// TextSize returns the text-input length (bw, lrs, sa) for a scale.
func TextSize(s Scale) int {
	switch s {
	case ScaleTest:
		return 20_000
	case ScaleSmall:
		return 100_000
	default:
		return 400_000
	}
}

// SeqSize returns the sequence-input length (sort, dedup, hist, isort).
func SeqSize(s Scale) int {
	switch s {
	case ScaleTest:
		return 50_000
	case ScaleSmall:
		return 1_000_000
	default:
		return 5_000_000
	}
}

// PointCount returns the dr input size.
func PointCount(s Scale) int {
	switch s {
	case ScaleTest:
		return 300
	case ScaleSmall:
		return 2_000
	default:
		return 10_000
	}
}

// Instance is one prepared benchmark run: inputs generated and outputs
// allocated (untimed), ready to execute.
type Instance struct {
	// RunLibrary executes the RPB expression on the given worker,
	// honoring core.GetMode(). A nil worker runs sequentially.
	RunLibrary func(w *core.Worker)
	// RunDirect executes the hand-rolled baseline on nThreads plain
	// goroutines.
	RunDirect func(nThreads int)
	// Verify checks the output of the most recent run.
	Verify func() error
	// Reset restores state so the instance can run again (may be nil
	// when runs are naturally idempotent).
	Reset func()
	// Stat optionally reports a benchmark-specific result statistic
	// (e.g. MIS size) for cross-variant determinism checks.
	Stat func() int64
}

// Spec describes a registered benchmark.
type Spec struct {
	Name   string
	Long   string   // full benchmark name as in Table 1
	Inputs []string // input names (Table 1's Inputs column)
	// Make prepares an instance for one input at a scale. Generation is
	// not timed.
	Make func(input string, scale Scale) *Instance
}

var (
	regMu    sync.Mutex //lint:scared guards the init-time benchmark registry, not kernel data
	registry []Spec
)

// Register adds a benchmark to the suite registry (called from init).
func Register(s Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, s)
}

// All returns the registered benchmarks sorted by name.
func All() []Spec {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Spec(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the benchmark with the given name.
func Find(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// Variant selects which expression of a benchmark to run.
type Variant string

const (
	// VariantLibrary is the RPB expression (library + current Mode).
	VariantLibrary Variant = "rpb"
	// VariantDirect is the hand-rolled baseline (the C++ stand-in).
	VariantDirect Variant = "direct"
)

// Measure runs an instance reps times under the given variant, mode
// and thread count, verifying each run, and returns the mean wall-clock
// seconds. The mode holds for these reps only: the caller's mode is
// back when Measure returns, on error too. For the library variant,
// threads == 0 means "run sequentially on the calling goroutine" (the
// paper's 1-thread side-steps-the-runtime configuration uses
// threads == 1, which still spins up a 1-worker pool).
func Measure(inst *Instance, v Variant, mode core.Mode, threads, reps int) (float64, error) {
	defer core.SetMode(core.GetMode())
	core.SetMode(mode)
	if reps < 1 {
		reps = 1
	}
	var pool *core.Pool
	if v == VariantLibrary && threads > 0 {
		pool = core.NewPool(threads)
		defer pool.Close()
	}
	total := 0.0
	for rep := 0; rep < reps; rep++ {
		if inst.Reset != nil {
			inst.Reset()
		}
		start := time.Now()
		switch v {
		case VariantLibrary:
			if pool != nil {
				pool.Do(func(w *core.Worker) { inst.RunLibrary(w) })
			} else {
				inst.RunLibrary(nil)
			}
		case VariantDirect:
			inst.RunDirect(threads)
		default:
			return 0, fmt.Errorf("bench: unknown variant %q", v)
		}
		total += time.Since(start).Seconds()
		if inst.Verify != nil {
			if err := inst.Verify(); err != nil {
				return 0, fmt.Errorf("verification failed (rep %d): %w", rep, err)
			}
		}
	}
	return total / float64(reps), nil
}

// GeoMean returns the geometric mean of xs (which must be positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
