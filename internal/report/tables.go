// Package report regenerates every table and figure of the paper's
// evaluation from live runs of this reproduction, rendering them as
// ASCII tables (the benchmark harness the paper's Sec 7 describes).
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
)

// Table1 renders the benchmark × access-pattern checklist (paper
// Table 1) from the declared-site census.
func Table1(w io.Writer) {
	c := core.TakeCensus()
	fmt.Fprintln(w, "Table 1: Ported benchmarks and their parallel access patterns")
	fmt.Fprintf(w, "%-6s %-28s %-14s", "Abbrv", "Benchmark name", "Inputs")
	for _, p := range core.Patterns {
		fmt.Fprintf(w, " %-7s", p)
	}
	fmt.Fprintln(w)
	specs := bench.All()
	// Table 1 order in the paper: bw lrs sa dr mis mm sf msf sort dedup
	// hist isort bfs sssp. The analytics extension (ISSUE 10) appends
	// its four kernels after the paper roster: cc pr tc kcore.
	order := []string{"bw", "lrs", "sa", "dr", "mis", "mm", "sf", "msf",
		"sort", "dedup", "hist", "isort", "bfs", "sssp",
		"cc", "pr", "tc", "kcore"}
	byName := map[string]bench.Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	for _, name := range order {
		s, ok := byName[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-6s %-28s %-14s", s.Name, s.Long, strings.Join(s.Inputs, ","))
		pats := c.PerBench[s.Name]
		for _, p := range core.Patterns {
			mark := ""
			if pats[p] {
				mark = "x"
			}
			fmt.Fprintf(w, " %-7s", mark)
		}
		fmt.Fprintln(w)
	}
}

// Table2 renders the input-graph statistics (paper Table 2) from the
// generators at the given scale, building each graph on wk.
func Table2(w io.Writer, wk *core.Worker, scale bench.Scale) {
	fmt.Fprintln(w, "Table 2: Input graphs and their characteristics")
	fmt.Fprintf(w, "%-8s %-12s %-12s %-8s\n", "Name", "|V|", "|E|", "|E|/|V|")
	for _, name := range graph.GraphInputs {
		g := graph.LoadUndirected(wk, name, scale, 1)
		// Table 2 counts each undirected edge once; CSR stores both
		// directions.
		fmt.Fprintf(w, "%-8s %-12d %-12d %-8.1f\n", name, g.N, g.M()/2, float64(g.M())/float64(g.N)/2)
	}
}

// Table3 renders the studied patterns and their safety levels (paper
// Table 3) from the library's static pattern metadata.
func Table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: Studied patterns and their safety levels")
	fmt.Fprintf(w, "%-7s %-28s %-34s %s\n", "Abbr", "Write pattern", "Parallel expression", "Fearlessness")
	for _, p := range core.Patterns {
		fear := p.Fear().String()
		fmt.Fprintf(w, "%-7s %-28s %-34s %s\n", p, p.WritePattern(), p.Expression(), fear)
	}
}

// Fig3 renders the distribution of access patterns across the suite
// (paper Fig 3) and the Sec 7.2 irregularity claims.
func Fig3(w io.Writer) {
	c := core.TakeCensus()
	fmt.Fprintln(w, "Fig 3: Distribution of access patterns in the suite (static site census)")
	if c.Total == 0 {
		fmt.Fprintln(w, "  (no sites declared)")
		return
	}
	for _, p := range core.Patterns {
		n := c.PerKind[p]
		pct := 100 * float64(n) / float64(c.Total)
		bar := strings.Repeat("#", int(pct/2))
		fmt.Fprintf(w, "  %-7s %3d sites %5.1f%% %s\n", p, n, pct, bar)
	}
	irregular := 100 * float64(c.Irregular) / float64(c.Total)
	fmt.Fprintf(w, "  irregular (SngInd+RngInd+AW): %.1f%% of accesses (paper: 29%%)\n", irregular)
	// Sec 7.2: every benchmark has irregular parallelism.
	all := true
	for _, b := range c.Benches {
		has := false
		for p, ok := range c.PerBench[b] {
			if ok && p.Irregular() {
				has = true
			}
		}
		if !has {
			all = false
			fmt.Fprintf(w, "  WARNING: %s has no irregular pattern\n", b)
		}
	}
	if all {
		fmt.Fprintf(w, "  all %d benchmarks contain irregular parallelism (paper Sec 7.2: same)\n", len(c.Benches))
	}
}
