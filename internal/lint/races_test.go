package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRacesFixtureClean pins the positive fixtures: one function per
// proof form the races pass accepts. Every shared write must land in a
// non-refused class, and every subrule the pass knows must fire at
// least once — a silent downgrade to refused is a regression even if
// the counts happen to balance.
func TestRacesFixtureClean(t *testing.T) {
	rep, err := Races(Config{Root: filepath.Join("testdata", "src", "races-clean")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "races-clean.golden", rep.String())

	if rep.Refused != 0 || rep.Unexplained != 0 {
		t.Errorf("clean fixtures: %d refused (%d unexplained), want 0/0", rep.Refused, rep.Unexplained)
	}
	details := map[string]bool{}
	for _, s := range rep.Sites {
		details[s.Detail] = true
	}
	for _, want := range []string{
		"task-affine", "atomic.Add", "guarded by mu", "handed slot",
		"block-owner", "block-scaled", "unique-handout", "worker-owned",
		"range-owner", "residue-class", "join-branch-exclusive", "join-disjoint-slices",
	} {
		found := false
		for d := range details {
			if strings.Contains(d, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no clean-fixture site classified with detail containing %q", want)
		}
	}
}

// TestRacesFixtureBad pins the negative fixtures: shapes one obligation
// away from certifiable must all be refused — in a kernel package and in
// a bench package alike, the gate being module-wide — and only the site
// carrying a //lint:scared marker escapes the unexplained count.
func TestRacesFixtureBad(t *testing.T) {
	rep, err := Races(Config{Root: filepath.Join("testdata", "src", "races-bad")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "races-bad.golden", rep.String())

	for _, s := range rep.Sites {
		if s.Class != RaceRefused {
			t.Errorf("bad-fixture site %s:%d classified %s, want refused", s.File, s.Line, s.Class)
		}
	}
	if rep.Unexplained != 35 {
		t.Errorf("bad fixtures: %d unexplained, want 35 (only the audited site is exempt)", rep.Unexplained)
	}
	for _, s := range rep.Sites {
		if s.Marker && s.Func != "Audited" {
			t.Errorf("site in %s carries a marker; only Audited should", s.Func)
		}
	}
}

// TestRacesFixtureCallgraph pins callee-resolution shapes that once
// slipped through: generic instantiation, concrete methods, bound
// method values, defers, and call chains must all surface the shared
// write, while the allocation-fresh generic stays clean.
func TestRacesFixtureCallgraph(t *testing.T) {
	rep, err := Races(Config{Root: filepath.Join("testdata", "src", "callgraph")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "races-callgraph.golden", rep.String())

	refusedIn := map[string]bool{}
	for _, s := range rep.Sites {
		if s.Class == RaceRefused {
			refusedIn[s.Func] = true
		} else if s.Func == "GenericFresh" {
			continue // the one clean region
		}
	}
	for _, fn := range []string{"GenericShared", "MethodShared", "MethodValue", "DeferShared", "ChainShared"} {
		if !refusedIn[fn] {
			t.Errorf("%s: shared write not refused — callee resolution gap", fn)
		}
	}
	if refusedIn["GenericFresh"] {
		t.Error("GenericFresh refused: allocation-fresh callee writes should be invisible")
	}
}

// TestRacesRepo runs the pass over the repository itself: the module
// must stay free of unexplained refusals, and the committed
// lint-races.json must match what the pass derives — the same staleness
// contract `make certs` enforces in CI.
func TestRacesRepo(t *testing.T) {
	rep, err := Races(Config{Root: filepath.Join("..", "..")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unexplained != 0 {
		t.Errorf("%d unexplained refusals, want 0:", rep.Unexplained)
		for _, s := range rep.Sites {
			if s.Class == RaceRefused && !s.Marker {
				t.Errorf("  %s", s.String())
			}
		}
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "lint-races.json"))
	if err != nil {
		t.Fatalf("missing committed lint-races.json: %v (run rpblint -races -write)", err)
	}
	if string(committed) != string(rep.Marshal()) {
		t.Error("committed lint-races.json is stale (run rpblint -races -write)")
	}
}
