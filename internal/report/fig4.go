package report

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
)

// Config controls the timed artifacts: Figs 4, 5 and 6 and the check
// cost table of the certification report.
type Config struct {
	Scale   bench.Scale
	Threads int // the paper's 24-thread point; clamp to the host
	Reps    int
}

func (c Config) withDefaults() Config {
	if c.Reps < 1 {
		c.Reps = 1
	}
	if c.Threads < 1 {
		c.Threads = 4
	}
	return c
}

// leg is one timed configuration of a kernel: its expression, the mode
// the library expression runs under and the worker count.
type leg struct {
	v       bench.Variant
	mode    core.Mode
	threads int
}

// pair is one row of a timed table: a bench on one input.
type pair struct {
	label string
	spec  bench.Spec
	input string
}

// timeLegs prepares each pair once and times it on every leg in turn:
// secs[i][j] is pair i's mean seconds on leg j.
func timeLegs(cfg Config, pairs []pair, legs ...leg) (secs [][]float64, err error) {
	for _, p := range pairs {
		inst := p.spec.Make(p.input, cfg.Scale)
		row := make([]float64, len(legs))
		for j, l := range legs {
			if row[j], err = bench.Measure(inst, l.v, l.mode, l.threads, cfg.Reps); err != nil {
				return nil, fmt.Errorf("%s %s/%s@%d: %w", p.label, l.v, l.mode, l.threads, err)
			}
		}
		secs = append(secs, row)
	}
	return secs, nil
}

// printRatios prints heads, then one line per pair: its seconds on legs
// a and b, their ratio b/a and the columns extra derives from the row,
// if any. It returns the ratios in pair order.
func printRatios(w io.Writer, heads []string, pairs []pair, secs [][]float64, a, b int, extra func([]float64) []float64) []float64 {
	fmt.Fprintf(w, "%-18s %14s %14s %10s", heads[0], heads[1], heads[2], heads[3])
	for _, h := range heads[4:] {
		fmt.Fprintf(w, " %10s", h)
	}
	fmt.Fprintln(w)
	var ratios []float64
	for i, p := range pairs {
		r := secs[i][b] / secs[i][a]
		ratios = append(ratios, r)
		fmt.Fprintf(w, "%-18s %14.4f %14.4f %10.2f", p.label, secs[i][a], secs[i][b], r)
		if extra != nil {
			for _, x := range extra(secs[i]) {
				fmt.Fprintf(w, " %10.2f", x)
			}
		}
		fmt.Fprintln(w)
	}
	return ratios
}

// Fig4 runs the library-vs-direct comparison at 1 thread (Fig 4a) and
// at Threads threads with scaling dots (Fig 4b) over every bench and
// input, printing normalized execution times the way the paper reports
// them (direct baseline = 1.0, playing the role of C++ PBBS). The
// library runs unchecked: the paper's Fig 4 uses unsafe SngInd/AW.
func Fig4(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	var pairs []pair
	for _, spec := range bench.All() {
		for _, input := range spec.Inputs {
			pairs = append(pairs, pair{spec.Name + "-" + input, spec, input})
		}
	}
	un := core.ModeUnchecked
	secs, err := timeLegs(cfg, pairs,
		leg{bench.VariantDirect, un, 1}, leg{bench.VariantLibrary, un, 1},
		leg{bench.VariantDirect, un, cfg.Threads}, leg{bench.VariantLibrary, un, cfg.Threads})
	if err != nil {
		return err
	}

	heads := []string{"bench", "direct(s)", "rpb(s)", "rpb/direct"}
	fmt.Fprintf(w, "Fig 4(a): execution time at 1 thread, normalized to the direct baseline\n")
	gmean(w, printRatios(w, heads, pairs, secs, 0, 1, nil), "RPB 1.09x faster, i.e. 0.92")

	fmt.Fprintf(w, "\nFig 4(b): execution time at %d threads, normalized; scaling vs own 1-thread\n", cfg.Threads)
	scaling := func(s []float64) []float64 { return []float64{s[0] / s[2], s[1] / s[3]} }
	gmean(w, printRatios(w, append(heads, "scale-dir", "scale-rpb"), pairs, secs, 2, 3, scaling),
		"RPB 1.44x slower at 24c")
	return nil
}

// gmean prints the geometric mean of ratios under printRatios' ratio
// column, with the paper's figure for comparison.
func gmean(w io.Writer, ratios []float64, paper string) {
	fmt.Fprintf(w, "%-18s %29s %10.2f   (paper: %s)\n", "gmean", "", bench.GeoMean(ratios), paper)
}
