package report

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
)

// Fig5Config controls the unsafe-replacement overhead experiments.
type Fig5Config struct {
	Scale   bench.Scale
	Threads int
	Reps    int
}

// Fig5a measures the cost of replacing unchecked SngInd with the
// checked interior-unsafe adapter (par_ind_iter_mut analog) on bw, lrs
// and sa — the three benchmarks the paper integrates it into. Values
// are normalized to the unchecked run (paper Fig 5a: negligible for bw,
// up to ~3x for lrs/sa).
func Fig5a(w io.Writer, cfg Fig5Config) error {
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	if cfg.Threads < 1 {
		cfg.Threads = 4
	}
	fmt.Fprintf(w, "Fig 5(a): overhead of dynamic offset checking for SngInd at %d threads\n", cfg.Threads)
	fmt.Fprintf(w, "%-8s %14s %14s %10s\n", "bench", "unchecked(s)", "checked(s)", "ratio")
	for _, name := range []string{"bw", "lrs", "sa"} {
		spec, err := bench.Find(name)
		if err != nil {
			return err
		}
		inst := spec.Make(spec.Inputs[0], cfg.Scale)
		core.SetMode(core.ModeUnchecked)
		un, err := bench.Measure(inst, bench.VariantLibrary, cfg.Threads, cfg.Reps)
		if err != nil {
			return fmt.Errorf("%s unchecked: %w", name, err)
		}
		core.SetMode(core.ModeChecked)
		ch, err := bench.Measure(inst, bench.VariantLibrary, cfg.Threads, cfg.Reps)
		if err != nil {
			return fmt.Errorf("%s checked: %w", name, err)
		}
		core.SetMode(core.ModeUnchecked)
		fmt.Fprintf(w, "%-8s %14.4f %14.4f %10.2f\n", name, un, ch, ch/un)
	}
	fmt.Fprintln(w, "(paper: bw ~1x; lrs up to 2.8x; sa ~2.5x)")
	return nil
}

// Fig5b measures the cost of replacing unchecked code with
// synchronization on the two kernels with a synchronized expression in
// this port: hist's per-bucket mutexes on big structs (the paper's 4x
// case) and isort's atomic stores. The paper's other rows read no
// ModeSynchronized here, so both modes would time the same code.
func Fig5b(w io.Writer, cfg Fig5Config) error {
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	if cfg.Threads < 1 {
		cfg.Threads = 4
	}
	fmt.Fprintf(w, "Fig 5(b): overhead of (unnecessary) synchronization at %d threads\n", cfg.Threads)
	fmt.Fprintf(w, "%-18s %14s %14s %10s\n", "bench", "unchecked(s)", "synced(s)", "ratio")
	for _, name := range []string{"hist", "isort"} {
		spec, err := bench.Find(name)
		if err != nil {
			return err
		}
		inst := spec.Make(spec.Inputs[0], cfg.Scale)
		core.SetMode(core.ModeUnchecked)
		un, err := bench.Measure(inst, bench.VariantLibrary, cfg.Threads, cfg.Reps)
		if err != nil {
			return fmt.Errorf("%s unchecked: %w", name, err)
		}
		core.SetMode(core.ModeSynchronized)
		sy, err := bench.Measure(inst, bench.VariantLibrary, cfg.Threads, cfg.Reps)
		if err != nil {
			return fmt.Errorf("%s synchronized: %w", name, err)
		}
		core.SetMode(core.ModeUnchecked)
		fmt.Fprintf(w, "%-18s %14.4f %14.4f %10.2f\n", name+"-"+spec.Inputs[0], un, sy, sy/un)
	}
	fmt.Fprintln(w, "not timed: bw, lrs, sa, mis, mm, msf and sf have no synchronized expression in this port")
	fmt.Fprintln(w, "(paper: ~1x with relaxed atomics everywhere; hist 4x from Mutex on big structs)")
	return nil
}
