// rpb runs one benchmark of the suite under a chosen variant,
// expression mode, thread count and input scale, verifying the result —
// the per-benchmark driver of the reproduction.
//
// Usage:
//
//	rpb -bench sort [-input exponential] [-variant rpb|direct]
//	    [-mode unchecked|checked|synchronized] [-threads 4]
//	    [-scale test|small|default] [-reps 3] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark to run (see -list)")
		input     = flag.String("input", "", "input name (default: the benchmark's first input)")
		variant   = flag.String("variant", "rpb", "rpb (library) or direct (hand-rolled baseline)")
		mode      = flag.String("mode", "unchecked", "unchecked, checked, or synchronized")
		threads   = flag.Int("threads", 4, "worker count (0 = run library variant sequentially)")
		reps      = flag.Int("reps", 3, "repetitions (mean reported)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		dyn       = flag.Bool("dyn", false, "print per-pattern primitive invocation counts after the run")
	)
	sc := bench.ScaleSmall
	flag.Var(&sc, "scale", "input scale: test, small, or default")
	flag.Parse()

	if *list {
		fmt.Printf("%-8s %-28s %s\n", "name", "benchmark", "inputs")
		for _, s := range bench.All() {
			fmt.Printf("%-8s %-28s %s\n", s.Name, s.Long, strings.Join(s.Inputs, ","))
		}
		return
	}
	if *benchName == "" {
		fmt.Fprintln(os.Stderr, "rpb: -bench is required (use -list to see the suite)")
		os.Exit(2)
	}
	spec, err := bench.Find(*benchName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpb:", err)
		os.Exit(2)
	}
	in := *input
	if in == "" {
		in = spec.Inputs[0]
	}
	ok := false
	for _, i := range spec.Inputs {
		if i == in {
			ok = true
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "rpb: %s has inputs %v, not %q\n", spec.Name, spec.Inputs, in)
		os.Exit(2)
	}

	var m core.Mode
	switch *mode {
	case "unchecked":
		m = core.ModeUnchecked
	case "checked":
		m = core.ModeChecked
	case "synchronized":
		m = core.ModeSynchronized
	default:
		fmt.Fprintf(os.Stderr, "rpb: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	v := bench.Variant(*variant)
	if v != bench.VariantLibrary && v != bench.VariantDirect {
		fmt.Fprintf(os.Stderr, "rpb: unknown variant %q\n", *variant)
		os.Exit(2)
	}

	fmt.Printf("preparing %s-%s at scale %s...\n", spec.Name, in, sc)
	inst := spec.Make(in, sc)
	if *dyn {
		core.ResetDynamicCounts()
		defer core.EnableDynamicCensus(core.EnableDynamicCensus(true))
	}
	secs, err := bench.Measure(inst, v, m, *threads, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpb:", err)
		os.Exit(1)
	}
	fmt.Printf("%s-%s variant=%s mode=%s threads=%d reps=%d: %.4fs (verified)\n",
		spec.Name, in, v, m, *threads, *reps, secs)
	if *dyn {
		counts := core.DynamicCounts()
		for _, p := range core.Patterns {
			fmt.Printf("  %-7s %d\n", p, counts[p])
		}
	}
}
