package report

import (
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
)

// DynCensus addresses the paper's stated future work (Sec 7.2,
// footnote 4): "Future work can evaluate the contribution of irregular
// parallelism at run time." The static census (Fig 3) counts access
// sites; this one runs every benchmark with the library's per-pattern
// invocation counters and reports how often each pattern primitive
// actually executes, per benchmark and in aggregate.
//
// Invocation counts weight a whole parallel region as one use of its
// pattern (one ForEachIdx call = 1 Stride invocation), so they measure
// how often programmers *reach for* each expression dynamically — the
// run-time analog of the paper's programmer-experience framing — not
// per-element traffic.
func DynCensus(w io.Writer, scale bench.Scale, threads int) error {
	if threads < 1 {
		threads = 2
	}
	fmt.Fprintln(w, "Dynamic pattern census: run-time primitive invocations per benchmark")
	fmt.Fprintf(w, "%-12s", "bench")
	for _, p := range core.Patterns {
		fmt.Fprintf(w, " %8s", p)
	}
	fmt.Fprintf(w, " %8s\n", "irreg%")
	totals := map[core.Pattern]int64{}
	prev := core.EnableDynamicCensus(true)
	defer core.EnableDynamicCensus(prev)
	for _, spec := range bench.All() {
		input := spec.Inputs[0]
		inst := spec.Make(input, scale)
		core.ResetDynamicCounts()
		if _, err := bench.Measure(inst, bench.VariantLibrary, core.ModeUnchecked, threads, 1); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		counts := core.DynamicCounts()
		var all, irr int64
		fmt.Fprintf(w, "%-12s", spec.Name+"-"+input)
		for _, p := range core.Patterns {
			c := counts[p]
			totals[p] += c
			all += c
			if p.Irregular() {
				irr += c
			}
			fmt.Fprintf(w, " %8d", c)
		}
		pct := 0.0
		if all > 0 {
			pct = 100 * float64(irr) / float64(all)
		}
		fmt.Fprintf(w, " %7.1f%%\n", pct)
	}
	var all, irr int64
	fmt.Fprintf(w, "%-12s", "total")
	for _, p := range core.Patterns {
		all += totals[p]
		if p.Irregular() {
			irr += totals[p]
		}
		fmt.Fprintf(w, " %8d", totals[p])
	}
	fmt.Fprintf(w, " %7.1f%%\n", 100*float64(irr)/float64(all))
	fmt.Fprintln(w, "(static Fig 3 counts sites; this table counts run-time primitive invocations.")
	fmt.Fprintln(w, " AW helpers count per call, so AW-heavy rows weigh per element; substrate-internal")
	fmt.Fprintln(w, " synchronization — hash-table probes, union-find hooks — is censused statically only,")
	fmt.Fprintln(w, " so dedup/sf/hist rows undercount AW.)")
	core.ResetDynamicCounts()
	return nil
}
