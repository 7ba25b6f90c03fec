package report

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/lint"
)

// siteTally counts certificate sites into per-key rows and renders
// them as one aligned table: the shape all three certification reports
// (certs, races, lifetimes) share. Each proved class has a column, in
// order; refused sites land in the two columns after them — audited
// (//lint:scared) then unexplained — and are kept for the audit
// listing.
type siteTally struct {
	proved  []string
	heads   []string
	widths  []int
	rows    map[string][]int
	total   []int
	refused []string
}

func (t *siteTally) add(key, class string, audited bool, detail string) {
	if t.rows == nil {
		t.rows, t.total = map[string][]int{}, make([]int, len(t.heads))
	}
	if t.rows[key] == nil {
		t.rows[key] = make([]int, len(t.heads))
	}
	col, mark := slices.Index(t.proved, class), " "
	if col < 0 {
		col = len(t.proved) + 1
		if audited {
			col, mark = len(t.proved), "A"
		}
		t.refused = append(t.refused, "  ["+mark+"] "+detail)
	}
	t.rows[key][col]++
	t.total[col]++
}

// print renders the header, the rows in key order and, when withTotal
// is set, the column-sum "total" row; it returns the sorted keys.
func (t *siteTally) print(w io.Writer, keyHead string, keyWidth int, withTotal bool) []string {
	line := func(key string, cell func(i int) any) {
		fmt.Fprintf(w, "%-*s", keyWidth, key)
		for i := range t.heads {
			fmt.Fprintf(w, " %*v", t.widths[i], cell(i))
		}
		fmt.Fprintln(w)
	}
	line(keyHead, func(i int) any { return t.heads[i] })
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line(k, func(i int) any { return t.rows[k][i] })
	}
	if withTotal {
		line("total", func(i int) any { return t.total[i] })
	}
	return keys
}

// printRefusals lists the refused sites of a per-package report.
func (t *siteTally) printRefusals(w io.Writer, what string) {
	if len(t.refused) == 0 {
		return
	}
	fmt.Fprintf(w, "\nRefused %s (each needs a //lint:scared audit or a redesign):\n", what)
	for _, l := range t.refused {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w, "  ([A] = audited with //lint:scared)")
}

// lintModule runs one lint pass over the enclosing module.
func lintModule[R any](pass func(lint.Config) (*R, error)) (*R, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	return pass(lint.Config{Root: root})
}

// Certs renders the certification report (rpbreport -what certs). The
// first table counts, per bench, the irregular call sites a current
// certificate covers — certified sites run unchecked under proof,
// elidable-check sites pay a dynamic check the proof makes redundant —
// against the sites still relying on run-time validation or a
// DeclareSite audit. The second table measures what elision buys: for
// every bench with a certified site, the checked-mode vs unchecked-mode
// wall time, i.e. the Fig 5 check cost a certificate removes without
// giving up the safety argument.
func Certs(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	rep, err := lintModule(lint.Certify)
	if err != nil {
		return err
	}

	// Everything not proved relies on run-time validation: one
	// "dynamic" column, no audited/unexplained split.
	t := siteTally{proved: []string{lint.CertCertified, lint.CertElidable},
		heads: []string{"certified", "elidable", "dynamic"}, widths: []int{10, 10, 10}}
	for _, s := range rep.Sites {
		for _, b := range s.Benches {
			t.add(b, s.Status, true, "")
		}
	}

	fmt.Fprintf(w, "Certification: statically proved vs dynamically checked irregular sites\n")
	fmt.Fprintf(w, "(%d certified, %d elidable-check, %d refused module-wide; see lint-certs.json)\n",
		rep.Certified, rep.Elidable, rep.Refused)
	benches := t.print(w, "bench", 8, false)

	fmt.Fprintf(w, "\nCheck cost elided by certificates at %d threads (cf. Fig 5a)\n", cfg.Threads)
	var certified []string
	for _, name := range benches {
		if t.rows[name][0] > 0 {
			certified = append(certified, name)
		}
	}
	if err := modePair(w, cfg, certified, false, core.ModeChecked,
		"bench", "certified(s)", "checked(s)", "ratio"); err != nil {
		return err
	}
	fmt.Fprintln(w, "(certified mode = unchecked under certificate: same code the proof covers)")
	return nil
}
