package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the bad-fixture golden file")

// TestFixtureClean runs the analyzer over a fixture module that obeys
// every rule: declared patterns, marker-contained mutex. Any diagnostic
// is a false positive.
func TestFixtureClean(t *testing.T) {
	rep, err := Run(Config{Root: filepath.Join("testdata", "src", "clean")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diags {
		t.Errorf("false positive: %s", d)
	}
	if rep.Census.Total != 11 {
		t.Errorf("census total = %d, want 11", rep.Census.Total)
	}
	if got := rep.Census.PerKind["AW"]; got != 1 {
		t.Errorf("AW sites = %d, want 1 (bitmap frontier fixture)", got)
	}
	if got := rep.Census.PerKind["SngInd"]; got != 2 {
		t.Errorf("SngInd sites = %d, want 2", got)
	}
}

// TestFixtureBad runs the analyzer over the seeded-violation fixture
// and compares the rendered diagnostics against the golden file, so
// every rule's exact position and message stays pinned.
func TestFixtureBad(t *testing.T) {
	rep, err := Run(Config{Root: filepath.Join("testdata", "src", "bad")})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, d := range rep.Diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "bad.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}

	// Every rule class the fixture seeds must appear at least once.
	for _, rule := range []string{
		"undeclared-pattern", "undeclared-scared", "pattern-mismatch",
		"stale-declaration", "worker-escape", "unchecked-in-example", "bad-marker",
	} {
		if !strings.Contains(got, rule) {
			t.Errorf("rule %s never fired:\n%s", rule, got)
		}
	}
}

// TestSkipIsByPathNotBaseName: the fixture holds the same unmarked
// goroutine in benchmark/inputs (the one skipped path) and in
// internal/bench/inputs (a package that merely shares the base name).
// Only the second is analysed, and it is reported.
func TestSkipIsByPathNotBaseName(t *testing.T) {
	rep, err := Run(Config{Root: filepath.Join("testdata", "src", "inputs-dir")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diags) != 1 || rep.Diags[0].File != "internal/bench/inputs/gen.go" || rep.Diags[0].Rule != "undeclared-scared" {
		t.Errorf("want one undeclared-scared in internal/bench/inputs/gen.go, got %v", rep.Diags)
	}
}

// TestDirFilter pins the package-pattern normalization the CLI relies
// on ("./...", "internal/bench", "examples/...").
func TestDirFilter(t *testing.T) {
	cases := []struct {
		dirs []string
		rel  string
		want bool
	}{
		{nil, "internal/bench", true},
		{[]string{"./..."}, "internal/bench", true},
		{[]string{"internal/bench"}, "internal/bench", true},
		{[]string{"internal/bench"}, "internal/core", false},
		{[]string{"examples/..."}, "examples/demo", true},
		{[]string{"./internal/bench/..."}, "internal/bench", true},
		{[]string{"."}, "internal/core", true},
	}
	for _, c := range cases {
		if got := newDirFilter(c.dirs).match(c.rel); got != c.want {
			t.Errorf("filter(%v).match(%q) = %v, want %v", c.dirs, c.rel, got, c.want)
		}
	}
}
