package report

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
)

// modePair times the library expression of the named benches on their
// first inputs at cfg.Threads, unchecked and then under mode, and
// prints both times and mode's cost as their ratio.
func modePair(w io.Writer, cfg Config, names []string, withInput bool, mode core.Mode, heads ...string) error {
	var pairs []pair
	for _, name := range names {
		spec, err := bench.Find(name)
		if err != nil {
			return err
		}
		p := pair{name, spec, spec.Inputs[0]}
		if withInput {
			p.label += "-" + p.input
		}
		pairs = append(pairs, p)
	}
	secs, err := timeLegs(cfg, pairs,
		leg{bench.VariantLibrary, core.ModeUnchecked, cfg.Threads}, leg{bench.VariantLibrary, mode, cfg.Threads})
	if err != nil {
		return err
	}
	printRatios(w, heads, pairs, secs, 0, 1, nil)
	return nil
}

// Fig5a measures the cost of replacing unchecked SngInd with the
// checked interior-unsafe adapter (par_ind_iter_mut analog) on bw, lrs
// and sa — the three benchmarks the paper integrates it into. Values
// are normalized to the unchecked run (paper Fig 5a: negligible for bw,
// up to ~3x for lrs/sa).
func Fig5a(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Fig 5(a): overhead of dynamic offset checking for SngInd at %d threads\n", cfg.Threads)
	if err := modePair(w, cfg, []string{"bw", "lrs", "sa"}, false, core.ModeChecked,
		"bench", "unchecked(s)", "checked(s)", "ratio"); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: bw ~1x; lrs up to 2.8x; sa ~2.5x)")
	return nil
}

// Fig5b measures the cost of replacing unchecked code with
// synchronization on the two kernels with a synchronized expression in
// this port: hist's per-bucket mutexes on big structs (the paper's 4x
// case) and isort's atomic stores. The paper's other rows read no
// ModeSynchronized here, so both modes would time the same code.
func Fig5b(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Fig 5(b): overhead of (unnecessary) synchronization at %d threads\n", cfg.Threads)
	if err := modePair(w, cfg, []string{"hist", "isort"}, true, core.ModeSynchronized,
		"bench", "unchecked(s)", "synced(s)", "ratio"); err != nil {
		return err
	}
	fmt.Fprintln(w, "not timed: bw, lrs, sa, mis, mm, msf and sf have no synchronized expression in this port")
	fmt.Fprintln(w, "(paper: ~1x with relaxed atomics everywhere; hist 4x from Mutex on big structs)")
	return nil
}
