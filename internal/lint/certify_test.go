package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares got against a golden file, rewriting it under
// -update (shared with the bad-fixture lint golden).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestCertifyClean pins the positive fixtures: every proof form the
// prover accepts (packindex, affine-fill, permutation — through a sort
// or radix.SortPairsAt — and scan, through core.CountSort's starts and
// a helper's returned total too) certifies its unchecked site, an
// in-module helper that only reads the offsets leaves them certified,
// the checked affine scatter is elidable-check, and the one
// intraprocedurally-invisible site (offsets arriving as a parameter) is
// refused, not guessed at.
func TestCertifyClean(t *testing.T) {
	rep, err := Certify(Config{Root: filepath.Join("testdata", "src", "clean")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "certify-clean.golden", rep.String())
	// The fixture's plain lint run reads its certificate file for
	// containment, so the file must be what the pass derives.
	committed, err := os.ReadFile(filepath.Join("testdata", "src", "clean", "lint-certs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(rep.Marshal()) {
		t.Error("testdata/src/clean/lint-certs.json is stale (run rpblint -root internal/lint/testdata/src/clean -certify -write)")
	}

	if rep.Certified != 11 || rep.Elidable != 2 || rep.Refused != 1 {
		t.Errorf("counts = %d certified, %d elidable, %d refused; want 11/2/1",
			rep.Certified, rep.Elidable, rep.Refused)
	}
	sources := map[string]bool{}
	for _, s := range rep.Sites {
		if s.Status != CertRefused {
			sources[s.Source] = true
		}
	}
	for _, src := range []string{"packindex", "affine-fill", "permutation", "scan"} {
		if !sources[src] {
			t.Errorf("proof source %q never certified a clean-fixture site", src)
		}
	}
}

// TestCertifyBad pins the negative fixtures: shapes one obligation away
// from certifiable must all be refused — and in particular
// elidable-check must never fire on them.
func TestCertifyBad(t *testing.T) {
	rep, err := Certify(Config{Root: filepath.Join("testdata", "src", "bad")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "certify-bad.golden", rep.String())

	for _, s := range rep.Sites {
		if s.Status != CertRefused {
			t.Errorf("bad-fixture site %s:%d has status %s, want refused", s.File, s.Line, s.Status)
		}
	}
	for _, reason := range []string{
		"mutated after core.PackIndex",
		"stride 0",
		"re-ordered (sorted) around the scan",
		"aliased through a second slice header",
		"non-negative",
		"not inside a single recognized loop",
		"the fill proof needs exactly one",
		"written through pinFirst",
		"kept by stashOffsets",
		"closure the analysis cannot bind",
		"passed to core.ForEachIdx",
		"passed to core.Chunks",
		"passed to zapFirst, which writes through unmodeled expression",
		"written through zeroRest",
		"written through eachOf",
		"written through bumpAll",
		"equals the scan's total, n, the count passed to core.CountSort",
	} {
		found := false
		for _, s := range rep.Sites {
			if strings.Contains(s.Reason, reason) {
				found = true
			}
		}
		if !found {
			t.Errorf("no bad-fixture site refused with reason containing %q", reason)
		}
	}
}

// TestCertifyRepo runs the pass over the repository itself and pins the
// two real kernel proofs the PR's measurements rest on: the suffix
// array's rank scatter (SngInd via permutation) and sample sort's
// bucket boundaries (RngInd via scan).
func TestCertifyRepo(t *testing.T) {
	rep, err := Certify(Config{Root: filepath.Join("..", "..")})
	if err != nil {
		t.Fatal(err)
	}
	var sngCertified, rngCertified bool
	for _, s := range rep.Sites {
		if s.Status != CertCertified {
			continue
		}
		switch {
		case s.Pattern == "SngInd" && strings.HasPrefix(s.File, "internal/suffix/"):
			sngCertified = true
		case s.Pattern == "RngInd" && strings.HasPrefix(s.File, "internal/bench/"):
			rngCertified = true
		}
	}
	if !sngCertified {
		t.Error("no certified SngInd site in internal/suffix (suffix-array rank scatter)")
	}
	if !rngCertified {
		t.Error("no certified RngInd site in internal/bench (sample-sort boundaries)")
	}

	// The committed certificate file must match what the pass derives —
	// the same staleness contract `make certs` enforces in CI.
	committed, err := os.ReadFile(filepath.Join("..", "..", "lint-certs.json"))
	if err != nil {
		t.Fatalf("missing committed lint-certs.json: %v (run rpblint -certify -write)", err)
	}
	if string(committed) != string(rep.Marshal()) {
		t.Error("committed lint-certs.json is stale (run rpblint -certify -write)")
	}
}
