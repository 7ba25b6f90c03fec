package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Pattern classifies a parallel access to shared data, following the
// paper's taxonomy (Table 3).
type Pattern uint8

const (
	RO Pattern = iota // read-only
	Stride
	Block
	DC // divide and conquer
	SngInd
	RngInd
	AW // arbitrary reads and writes
	numPatterns
)

// Patterns lists all patterns in the paper's Table 3 order.
var Patterns = []Pattern{RO, Stride, Block, DC, SngInd, RngInd, AW}

func (p Pattern) String() string {
	switch p {
	case RO:
		return "RO"
	case Stride:
		return "Stride"
	case Block:
		return "Block"
	case DC:
		return "D&C"
	case SngInd:
		return "SngInd"
	case RngInd:
		return "RngInd"
	case AW:
		return "AW"
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// WritePattern describes the pattern's write structure as in Table 3.
func (p Pattern) WritePattern() string {
	switch p {
	case RO:
		return "Read only (AXM)"
	case Stride:
		return "Striding"
	case Block:
		return "Blocking"
	case DC:
		return "Divide and Conquer"
	case SngInd:
		return "Single-valued indirection"
	case RngInd:
		return "Ranged indirection"
	case AW:
		return "Arbitrary writes"
	}
	return "unknown"
}

// Expression names the library construct that expresses the pattern, the
// analog of Table 3's "Parallel expression" column.
func (p Pattern) Expression() string {
	switch p {
	case RO:
		return "Reduce / MapReduce (core)"
	case Stride:
		return "ForEachIdx (core)"
	case Block:
		return "Chunks (core)"
	case DC:
		return "Worker.Join (sched)"
	case SngInd:
		return "IndForEach (core, checked)"
	case RngInd:
		return "IndChunks (core, checked)"
	case AW:
		return "mix of above + atomics/locks"
	}
	return "unknown"
}

// Fear is the paper's spectrum of fear in parallel programming (Fig 2).
type Fear uint8

const (
	// Fearless: errors are structurally impossible for correct use of the
	// primitive (the paper: caught at compile time).
	Fearless Fear = iota
	// Comfortable: errors are caught at run time with symptoms close to
	// their causes (the primitive's dynamic check reports them).
	Comfortable
	// Scared: errors may happen without being detected.
	Scared
)

func (f Fear) String() string {
	switch f {
	case Fearless:
		return "Fearless"
	case Comfortable:
		return "Comfortable"
	case Scared:
		return "Scared"
	}
	return fmt.Sprintf("Fear(%d)", uint8(f))
}

// Fear returns the fear level the recommended expression of the pattern
// grants (Table 3's final column).
func (p Pattern) Fear() Fear {
	switch p {
	case RO, Stride, Block, DC:
		return Fearless
	case SngInd, RngInd:
		return Comfortable
	case AW:
		return Scared
	}
	return Scared
}

// Irregular reports whether the pattern is one of the paper's irregular
// access patterns (Sec 5: SngInd, RngInd, AW).
func (p Pattern) Irregular() bool {
	return p == SngInd || p == RngInd || p == AW
}

// Site identifies one static access to a shared data structure inside a
// parallel region, the unit the paper's Sec 7.2 census counts.
type Site struct {
	Bench   string
	Label   string
	Pattern Pattern
}

// SiteConflict records a re-declaration of an existing (bench, label)
// site under a different pattern — two pieces of code disagreeing about
// what a shared access does, which would silently corrupt the census.
type SiteConflict struct {
	Bench      string
	Label      string
	First      Pattern // pattern of the declaration that won
	Redeclared Pattern // conflicting later pattern, ignored
}

var (
	siteMu        sync.Mutex
	siteSet       = map[string]Site{}
	siteOrder     []string
	siteConflicts []SiteConflict
)

// DeclareSite registers a static parallel access site. Benchmarks declare
// one site per shared-data access in their parallel regions, adjacent to
// the code performing the access; the registry deduplicates by
// (bench, label) so declarations are idempotent across runs. The
// resulting census regenerates Table 1 and Fig 3.
//
// Re-declaring an existing (bench, label) with the same pattern is a
// no-op. Re-declaring it with a different pattern keeps the first
// declaration, records a SiteConflict, and returns an error; most
// callers declare at init time and ignore the return, so conflicts are
// also surfaced through SiteConflicts (and the rpblint fear report).
func DeclareSite(bench, label string, p Pattern) error {
	key := bench + "\x00" + label
	siteMu.Lock()
	defer siteMu.Unlock()
	if prev, ok := siteSet[key]; ok {
		if prev.Pattern != p {
			siteConflicts = append(siteConflicts, SiteConflict{
				Bench: bench, Label: label,
				First: prev.Pattern, Redeclared: p,
			})
			return fmt.Errorf("core: site (%s, %q) re-declared as %s; first declared %s wins",
				bench, label, p, prev.Pattern)
		}
		return nil
	}
	siteSet[key] = Site{Bench: bench, Label: label, Pattern: p}
	siteOrder = append(siteOrder, key)
	return nil
}

// SiteConflicts returns every conflicting re-declaration seen so far,
// in occurrence order.
func SiteConflicts() []SiteConflict {
	siteMu.Lock()
	defer siteMu.Unlock()
	return append([]SiteConflict(nil), siteConflicts...)
}

// Sites returns all declared sites in declaration order.
func Sites() []Site {
	siteMu.Lock()
	defer siteMu.Unlock()
	out := make([]Site, 0, len(siteOrder))
	for _, k := range siteOrder {
		out = append(out, siteSet[k])
	}
	return out
}

// Census summarizes the declared sites: per-pattern site counts and the
// per-benchmark set of patterns used.
type Census struct {
	Total     int
	PerKind   map[Pattern]int
	PerBench  map[string]map[Pattern]bool
	Benches   []string // sorted
	Irregular int      // sites with an irregular pattern
}

// TakeCensus computes the access-pattern census over all declared sites.
func TakeCensus() Census {
	sites := Sites()
	c := Census{
		PerKind:  map[Pattern]int{},
		PerBench: map[string]map[Pattern]bool{},
	}
	for _, s := range sites {
		c.Total++
		c.PerKind[s.Pattern]++
		if s.Pattern.Irregular() {
			c.Irregular++
		}
		m := c.PerBench[s.Bench]
		if m == nil {
			m = map[Pattern]bool{}
			c.PerBench[s.Bench] = m
		}
		m[s.Pattern] = true
	}
	for b := range c.PerBench {
		c.Benches = append(c.Benches, b)
	}
	sort.Strings(c.Benches)
	return c
}

// dynCounts tracks how many times each pattern primitive has been invoked
// at run time — a dynamic complement to the static census.
var dynCounts [numPatterns]atomic.Int64

// dynEnabled gates the run-time census. Counting costs an atomic RMW on
// a shared counter per primitive invocation — per *relaxation* for the
// AW helpers, which dominates graph-kernel hot loops — so the counters
// only accrue while a census consumer has switched them on; everyone
// else pays a read-mostly flag load.
var dynEnabled atomic.Bool

func countDyn(p Pattern) {
	if dynEnabled.Load() {
		dynCounts[p].Add(1)
	}
}

// EnableDynamicCensus switches run-time pattern counting on or off and
// returns the previous setting. Census consumers (rpb -census,
// rpbreport -what dyncensus) enable it around their measured runs; it
// is off by default so benchmark hot paths stay at hardware speed.
func EnableDynamicCensus(on bool) bool { return dynEnabled.Swap(on) }

// CountDynamic records one run-time invocation of pattern p in the
// dynamic census. Kernel code that drives sched loops directly (the
// box-based ForBody bodies of internal/radix, which bypass the closure
// primitives above) calls it so the fear report's dynamic column stays
// truthful about what actually ran.
func CountDynamic(p Pattern) { countDyn(p) }

// DynamicCounts returns the number of run-time invocations per pattern
// since the last reset.
func DynamicCounts() map[Pattern]int64 {
	m := make(map[Pattern]int64, numPatterns)
	for _, p := range Patterns {
		m[p] = dynCounts[p].Load()
	}
	return m
}

// ResetDynamicCounts zeroes the per-pattern invocation counters.
func ResetDynamicCounts() {
	for i := range dynCounts {
		dynCounts[i].Store(0)
	}
}
