package report

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
)

// SchedReport characterizes the work-stealing runtime under the suite
// itself: it runs a representative benchmark at several worker counts
// and reports per-pool task counts, steal ratios, lazy-split and
// wake-skip telemetry, and parks — the observable side of the paper's
// Sec 7.3 discussion of runtime management (Rayon vs Cilk) that
// wall-clock numbers alone cannot separate from language effects.
//
// The splits column is the number of subrange tasks the demand-driven
// splitter chose to create; with eager splitting it would be fixed at
// ~n/grain per loop. splits/stolen is the "tasks created vs. tasks
// stolen" ratio the lazy splitter optimizes toward 1: every task it
// creates exists because someone signalled demand for it. wake-skips
// counts spawns that bypassed the pool mutex because no worker was
// parked — the contention-free wakeup fast path.
func SchedReport(w io.Writer, scale bench.Scale, benchName string, workerCounts []int) error {
	if benchName == "" {
		benchName = "sort"
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	spec, err := bench.Find(benchName)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Scheduler characterization on %s-%s\n", spec.Name, spec.Inputs[0])
	fmt.Fprintf(w, "%-8s %10s %8s %8s %8s %10s %9s %8s %12s\n",
		"workers", "executed", "stolen", "splits", "parked", "wake-skips", "overflows", "steal%", "splits/stolen")
	for _, n := range workerCounts {
		inst := spec.Make(spec.Inputs[0], scale)
		pool := core.NewPool(n)
		pool.Do(func(wk *core.Worker) { inst.RunLibrary(wk) })
		if inst.Verify != nil {
			if err := inst.Verify(); err != nil {
				pool.Close()
				return fmt.Errorf("workers=%d: %w", n, err)
			}
		}
		stats := pool.Stats()
		pool.Close()
		var executed, stolen, parked, splits, wakeSkips, overflows int64
		for _, s := range stats {
			executed += s.Executed
			stolen += s.Stolen
			parked += s.Parked
			splits += s.SplitsSpawned
			wakeSkips += s.WakeSkips
			overflows += s.Overflows
		}
		stealRatio := 0.0
		if executed > 0 {
			stealRatio = float64(stolen) / float64(executed)
		}
		createdVsStolen := "-"
		if stolen > 0 {
			createdVsStolen = fmt.Sprintf("%.2f", float64(splits)/float64(stolen))
		}
		fmt.Fprintf(w, "%-8d %10d %8d %8d %8d %10d %9d %7.1f%% %12s\n",
			n, executed, stolen, splits, parked, wakeSkips, overflows, 100*stealRatio, createdVsStolen)
	}
	fmt.Fprintln(w, "(steal% = share of executed tasks obtained by stealing; splits = lazy-split")
	fmt.Fprintln(w, " tasks created on demand; splits/stolen near 1 means work was created only")
	fmt.Fprintln(w, " when somebody stole it; wake-skips = spawns that skipped the pool mutex)")
	return nil
}
