package repro

// End-to-end CLI tests: build each executable once and drive it the way
// a user would, validating outputs. Guarded by -short since building
// and running binaries dominates unit-test time.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles ./cmd/<name> into a temp dir and returns the path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIRpb(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test skipped in -short mode")
	}
	bin := buildTool(t, "rpb")

	list := run(t, bin, "-list")
	for _, name := range []string{"bw", "sssp", "dr"} {
		if !strings.Contains(list, name) {
			t.Errorf("-list missing %s:\n%s", name, list)
		}
	}

	out := run(t, bin, "-bench", "hist", "-scale", "test", "-threads", "2", "-reps", "1")
	if !strings.Contains(out, "verified") {
		t.Errorf("run output missing verification: %s", out)
	}

	out = run(t, bin, "-bench", "sort", "-scale", "test", "-mode", "checked", "-variant", "rpb", "-reps", "1")
	if !strings.Contains(out, "mode=checked") || !strings.Contains(out, "verified") {
		t.Errorf("checked-mode run wrong: %s", out)
	}

	// Invalid flags exit non-zero.
	for _, args := range [][]string{
		{"-bench", "nope"},
		{"-bench", "hist", "-mode", "bogus"},
		{"-bench", "hist", "-scale", "bogus"},
		{"-bench", "hist", "-variant", "bogus"},
		{"-bench", "hist", "-input", "wrong"},
		{},
	} {
		if err := exec.Command(bin, args...).Run(); err == nil {
			t.Errorf("rpb %v should have failed", args)
		}
	}
}

func TestCLIRpbgenExportImport(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test skipped in -short mode")
	}
	bin := buildTool(t, "rpbgen")
	dir := t.TempDir()

	out := run(t, bin, "-scale", "test", "-what", "graphs", "-out", dir)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("no files written: %s", out)
	}
	adj := filepath.Join(dir, "rmat.adj")
	if _, err := os.Stat(adj); err != nil {
		t.Fatal(err)
	}
	// Round-trip: the written file summarizes to the same |V|.
	stats := run(t, bin, "-in", adj)
	if !strings.Contains(stats, "|V|=512") {
		t.Errorf("reimported stats wrong: %s", stats)
	}
	// Table 2 path.
	table := run(t, bin, "-stats", "-scale", "test")
	if !strings.Contains(table, "Table 2") || !strings.Contains(table, "road") {
		t.Errorf("stats output wrong: %s", table)
	}
}

func TestCLIRpbreportArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test skipped in -short mode")
	}
	bin := buildTool(t, "rpbreport")
	out := run(t, bin, "-what", "table1")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "sssp") {
		t.Errorf("table1 output wrong: %s", out)
	}
	out = run(t, bin, "-what", "fig3")
	if !strings.Contains(out, "irregular") {
		t.Errorf("fig3 output wrong: %s", out)
	}
	out = run(t, bin, "-what", "fig5a", "-scale", "test", "-threads", "2", "-reps", "1")
	if !strings.Contains(out, "checked") {
		t.Errorf("fig5a output wrong: %s", out)
	}

	// Every artifact renders from live runs alone: the checkout holds no
	// measurement file for any of them to read.
	out = run(t, bin, "-what", "all", "-scale", "test", "-threads", "2", "-reps", "1")
	for _, block := range []string{"Table 1", "Fig 6", "MultiQueue discipline", "steal%"} {
		if !strings.Contains(out, block) {
			t.Errorf("-what all missing %q block", block)
		}
	}

	// An unknown artifact is an error that names the valid ones, not a
	// silent empty success.
	bad, err := exec.Command(bin, "-what", "mem").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-what mem: want exit code 2, got %v\n%s", err, bad)
	}
	for _, name := range []string{"table1", "graph", "lifetimes", "all"} {
		if !strings.Contains(string(bad), name) {
			t.Errorf("-what mem does not list %s: %s", name, bad)
		}
	}
}

func TestCLIRpblint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test skipped in -short mode")
	}
	bin := buildTool(t, "rpblint")

	// The repo itself is clean: exit 0.
	out := run(t, bin, "./...")
	if !strings.Contains(out, "clean") {
		t.Errorf("repo lint output wrong: %s", out)
	}

	// The -json census agrees with the runtime registry's shape.
	jsonOut := run(t, bin, "-json", "./...")
	var rep struct {
		Census struct {
			Total     int                 `json:"total"`
			Irregular int                 `json:"irregular"`
			PerBench  map[string][]string `json:"perBench"`
		} `json:"census"`
		Diags []any `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, jsonOut)
	}
	if len(rep.Census.PerBench) != 18 {
		t.Errorf("census covers %d benches, want 18", len(rep.Census.PerBench))
	}
	if rep.Census.Total == 0 || rep.Census.Irregular == 0 || len(rep.Diags) != 0 {
		t.Errorf("census total=%d irregular=%d diags=%d", rep.Census.Total, rep.Census.Irregular, len(rep.Diags))
	}

	// A seeded violation exits non-zero with a file:line diagnostic.
	cmd := exec.Command(bin, "-root", "internal/lint/testdata/src/bad")
	bad, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("lint of bad fixture should fail:\n%s", bad)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("bad fixture: want exit code 1, got %v", err)
	}
	if !strings.Contains(string(bad), "internal/bench/undeclared.go:16") ||
		!strings.Contains(string(bad), "undeclared-scared") {
		t.Errorf("bad-fixture diagnostics missing file:line: %s", bad)
	}

	// A pass describes the whole module, so it takes no package filter:
	// one used to truncate the certificate file to the filtered sites.
	filtered, err := exec.Command(bin, "-certify", "./internal/graph").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(filtered), "usage:") {
		t.Fatalf("-certify with a package: want exit code 2 and a usage line, got %v\n%s", err, filtered)
	}

	// The artifact checks run on a copy of the clean fixture module, so
	// no committed file is touched.
	fixture := filepath.Join("internal", "lint", "testdata", "src", "clean")
	root := copyTree(t, fixture)
	certs := filepath.Join(root, "lint-certs.json")
	races := filepath.Join(root, "lint-races.json")

	// Pass flags combine: every requested pass runs, and two stale
	// artifacts given together are both reported.
	for _, p := range []string{certs, races} {
		if err := os.WriteFile(p, []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	both, err := exec.Command(bin, "-root", root, "-certify", "-races").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("stale artifacts: want exit code 1, got %v\n%s", err, both)
	}
	for _, p := range []string{certs, races} {
		if !strings.Contains(string(both), p+" is stale") {
			t.Errorf("stale artifact %s not reported:\n%s", p, both)
		}
	}

	// -write rewrites the artifact of the pass requested: the copy's
	// certificate file is the committed fixture's again.
	run(t, bin, "-root", root, "-certify", "-write")
	got, err := os.ReadFile(certs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(fixture, "lint-certs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("-certify -write wrote\n%s\nwant the committed fixture's\n%s", got, want)
	}
}

// copyTree copies the directory tree at src into a temp dir and returns
// the copy's path.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
