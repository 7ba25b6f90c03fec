// rpbreport regenerates the paper's tables and figures from live runs:
//
//	rpbreport -what <artifact>|all
//	          [-scale test|small|default] [-threads N] [-reps N]
//
// `rpbreport -h` lists the artifact names; an unknown one exits 2. Each
// output block names the paper artifact it reproduces and, where the
// paper reports a headline number, quotes it for comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	var (
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "parallel thread count (the paper's 24-core point)")
		reps    = flag.Int("reps", 3, "repetitions per measurement")

		sc  = bench.ScaleSmall
		out = os.Stdout
	)
	flag.Var(&sc, "scale", "input scale: test, small, or default")
	cfg := func() report.Config { return report.Config{Scale: sc, Threads: *threads, Reps: *reps} }
	// The one list of artifacts: -what's help text, its validation and
	// the order of `-what all` all come from here.
	artifacts := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error { report.Table1(out); return nil }},
		{"table2", func() error { core.Run(func(w *core.Worker) { report.Table2(out, w, sc) }); return nil }},
		{"table3", func() error { report.Table3(out); return nil }},
		{"fig3", func() error { report.Fig3(out); return nil }},
		{"fig4", func() error { return report.Fig4(out, cfg()) }},
		{"fig5a", func() error { return report.Fig5a(out, cfg()) }},
		{"fig5b", func() error { return report.Fig5b(out, cfg()) }},
		{"fig6", func() error { report.Fig6(out, cfg()); return nil }},
		{"dyncensus", func() error { return report.DynCensus(out, sc, *threads) }},
		{"fearreport", func() error { return report.FearReport(out, "") }},
		{"sched", func() error {
			counts := []int{1, 2, 4, 8}
			if *threads > 8 {
				counts = append(counts, *threads)
			}
			return report.SchedReport(out, sc, "sort", counts)
		}},
		{"graph", func() error { return report.GraphReport(out, sc, *threads) }},
		{"coverage", func() error { report.Coverage(out); return nil }},
		{"certs", func() error { return report.Certs(out, cfg()) }},
		{"races", func() error { return report.RacesReport(out) }},
		{"lifetimes", func() error { return report.LifetimesReport(out) }},
	}
	var names string
	for _, a := range artifacts {
		names += a.name + ", "
	}
	names += "all"
	what := flag.String("what", "all", "artifact: "+names)
	flag.Parse()

	matched := false
	for _, a := range artifacts {
		if *what != a.name && *what != "all" {
			continue
		}
		matched = true
		if err := a.run(); err != nil {
			fmt.Fprintf(os.Stderr, "rpbreport: %s: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(out)
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "rpbreport: unknown -what %q (valid: %s)\n", *what, names)
		os.Exit(2)
	}
}
