package report

import (
	"fmt"
	"io"
)

// Sec 7.1's coverage claim: of the 22 parallel patterns in McCool,
// Reinders & Robison's "Structured Parallel Programming", RPB exercises
// 14. This artifact reproduces the inventory, mapping each present
// pattern to where it manifests in this codebase, and marking the
// paper's absent ones as not implemented.

// PatternCoverage is one row of the Sec 7.1 inventory.
type PatternCoverage struct {
	Name    string
	Present bool   // present in RPB per the paper
	Where   string // where it manifests here
}

// McCoolPatterns lists the paper's Sec 7.1 inventory with this
// repository's realizations.
var McCoolPatterns = []PatternCoverage{
	{"fork-join", true, "sched.Worker.Join; every benchmark"},
	{"map", true, "core.ForEachIdx/Tabulate; Stride sites suite-wide"},
	{"stencil", true, "geom mesh neighborhoods (dr)"},
	{"reduction", true, "core.Reduce/Sum; hist, mis win-checks"},
	{"scan", true, "core.ScanExclusive; radix, sort, isort, bw"},
	{"recurrence", true, "suffix prefix doubling (rank recurrences)"},
	{"pack", true, "core.PackIndex/PackInto; frontier packs in mis/mm/msf"},
	{"geometric decomposition", true, "core.Chunks; blocked counting passes"},
	{"gather", true, "indirect reads: rank[sa[j]+k] in sa, edges in graphs"},
	{"scatter", true, "core.IndForEach*; isort/sa/bw scatters"},
	{"search", true, "bfs/sssp; sort's splitter binary search"},
	{"segmentation", true, "core.IndChunks; sort buckets"},
	{"category reduction", true, "hist bucket merge; dedup hash table"},
	{"workpile", true, "mq.Process worker loops (bfs, sssp)"},
	{"pipeline", false, "not implemented"},
	{"superscalar sequences", false, "not implemented"},
	{"futures", false, "not implemented"},
	{"speculative selection", false, "not implemented"},
	{"expand", false, "not implemented"},
	{"term graph rewriting", false, "not implemented"},
	{"branch and bound", false, "not implemented"},
	{"transactions", false, "not implemented"},
}

// Coverage renders the Sec 7.1 pattern inventory.
func Coverage(w io.Writer) {
	present, absent := 0, 0
	for _, p := range McCoolPatterns {
		if p.Present {
			present++
		} else {
			absent++
		}
	}
	fmt.Fprintf(w, "Sec 7.1: coverage of McCool et al.'s parallel patterns (%d of %d present; paper: 14 of 22)\n",
		present, present+absent)
	fmt.Fprintf(w, "%-24s %-8s %s\n", "pattern", "in RPB", "realization here")
	for _, p := range McCoolPatterns {
		mark := "-"
		if p.Present {
			mark = "yes"
		}
		fmt.Fprintf(w, "%-24s %-8s %s\n", p.Name, mark, p.Where)
	}
}
