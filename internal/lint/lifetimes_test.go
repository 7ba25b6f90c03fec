package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestLifetimesFixtureClean pins the positive fixtures: one function
// per proof form the lifetimes pass accepts. Every checkout must land
// in a non-refused class, and every class and release discipline the
// pass knows must fire at least once — a silent downgrade to refused
// is a regression even if the counts happen to balance.
func TestLifetimesFixtureClean(t *testing.T) {
	rep, err := Lifetimes(Config{Root: filepath.Join("testdata", "src", "lifetimes-clean")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lifetimes-clean.golden", rep.String())

	if rep.Refused != 0 || rep.Unexplained != 0 {
		t.Errorf("clean fixtures: %d refused (%d unexplained), want 0/0", rep.Refused, rep.Unexplained)
	}
	if rep.Released == 0 || rep.RegionConfined == 0 || rep.WorkerConfined == 0 {
		t.Errorf("clean fixtures: class counts %d/%d/%d, every class must fire",
			rep.Released, rep.RegionConfined, rep.WorkerConfined)
	}
	details := map[string]bool{}
	for _, s := range rep.Sites {
		details[s.Detail] = true
	}
	for _, want := range []string{
		"deferred", "ReleaseBox", "never leaves the region body",
		"cleared before box reuse",
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

// TestLifetimesFixtureBad pins the negative fixtures: every shape one
// obligation away from confinement must be refused with its
// proof-chain reason, and only the site carrying a //lint:scared
// marker escapes the unexplained count (the fixture package sits in an
// enforced directory).
func TestLifetimesFixtureBad(t *testing.T) {
	rep, err := Lifetimes(Config{Root: filepath.Join("testdata", "src", "lifetimes-bad")})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lifetimes-bad.golden", rep.String())

	for _, s := range rep.Sites {
		if s.Class != LifeRefused {
			t.Errorf("bad-fixture site %s:%d classified %s, want refused", s.File, s.Line, s.Class)
		}
	}
	reasons := map[string]bool{}
	for _, s := range rep.Sites {
		reasons[s.Reason] = true
	}
	for _, want := range []string{
		"used after Release",         // use-after-release
		"out of LIFO order",          // mark released out of LIFO order
		"different worker goroutine", // cross-worker escape
		"returned from",              // returned checkout
		"stale mark",                 // stale mark across Reset
		"used after Reset",           // checkout use across Reset
		"read before first write",    // AllocUninit read-before-write
		"package-level",              // global store
		"sent on a channel",          // channel escape
		"retained by",                // interprocedural retention (callee summary)
		"dynamic callee",             // opaque hand-off
	} {
		found := false
		for r := range reasons {
			if strings.Contains(r, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no bad-fixture refusal with reason containing %q", want)
		}
	}
	if rep.Unexplained != rep.Refused-1 {
		t.Errorf("bad fixtures: %d unexplained of %d refused, want all but the audited site", rep.Unexplained, rep.Refused)
	}
	for _, s := range rep.Sites {
		if s.Marker && s.Func != "Audited" {
			t.Errorf("site in %s carries a marker; only Audited should", s.Func)
		}
	}
}

// TestLifetimesEscapeTwins pins that the flow walk and the callee
// summary judge a store alike: every escape shape in lifetimes-bad is
// refused both inline, by the walk, and through its helper twin, by
// the summary, and both refusals name the same store.
func TestLifetimesEscapeTwins(t *testing.T) {
	rep, err := Lifetimes(Config{Root: filepath.Join("testdata", "src", "lifetimes-bad")})
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]LifeSite{}
	for _, s := range rep.Sites {
		sites[s.Func] = s
	}
	for _, twin := range []struct{ inline, helper string }{
		{"AppendEscape", "HelperEscape"},
		{"AppendLocalEscape", "HelperAppendEscape"},
		{"ElementEscape", "HelperElementEscape"},
		{"FieldEscape", "HelperFieldEscape"},
		{"CopyEscape", "HelperCopyEscape"},
		{"ResliceEscape", "HelperResliceEscape"},
		{"AliasEscape", "HelperAliasEscape"},
		{"PointerEscape", "HelperPointerEscape"},
		{"LiteralEscape", "HelperLiteralEscape"},
		{"RangeEscape", "HelperRangeEscape"},
		{"CommaOKEscape", "HelperCommaOKEscape"},
	} {
		in, via := sites[twin.inline], sites[twin.helper]
		if in.Class != LifeRefused || via.Class != LifeRefused {
			t.Errorf("%s: %s inline, %s through %s; want both refused", twin.inline, in.Class, via.Class, twin.helper)
			continue
		}
		store := strings.TrimSuffix(in.Reason, ": outlives every region")
		if !strings.HasPrefix(via.Reason, "retained by ") || !strings.HasSuffix(via.Reason, ": "+store) {
			t.Errorf("%s: inline refusal %q and helper refusal %q name different stores", twin.inline, in.Reason, via.Reason)
		}
	}
}

// TestLifetimesPassOrder: the races and lifetimes passes read one
// memoized callee summary, and RunPasses runs races first. The
// lifetimes report must not depend on whether the races pass built a
// helper's summary before the lifetimes pass asked for it — ParkInBox's
// parkIn parks a checkout in a box field that is only a transit once
// the module-wide box prescan has run.
func TestLifetimesPassOrder(t *testing.T) {
	for _, fixture := range []string{"lifetimes-clean", "lifetimes-bad"} {
		cfg := Config{Root: filepath.Join("testdata", "src", fixture)}
		_, _, afterRaces, err := RunPasses(cfg, false, true, true)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := Lifetimes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(afterRaces.Marshal(), alone.Marshal()) {
			t.Errorf("%s: lifetimes report after races differs from lifetimes alone\n--- after races ---\n%s--- alone ---\n%s",
				fixture, afterRaces, alone)
		}
	}
}

// TestLifetimesRepo runs the pass over the repository itself: the
// module must stay free of unexplained refusals, and the committed
// lint-lifetimes.json must match what the pass derives — the same
// staleness contract `make certs` enforces in CI.
func TestLifetimesRepo(t *testing.T) {
	rep, err := Lifetimes(Config{Root: filepath.Join("..", "..")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unexplained != 0 {
		t.Errorf("%d unexplained refusals, want 0:", rep.Unexplained)
		for _, s := range rep.Sites {
			if s.Class == LifeRefused && !s.Marker {
				t.Errorf("  %s", s.String())
			}
		}
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "lint-lifetimes.json"))
	if err != nil {
		t.Fatalf("missing committed lint-lifetimes.json: %v (run rpblint -lifetimes -write)", err)
	}
	if string(committed) != string(rep.Marshal()) {
		t.Error("committed lint-lifetimes.json is stale (run rpblint -lifetimes -write)")
	}
}

// TestLintDocLifetimesCensus: docs/LINT.md quotes the lifetimes census
// of this module ("The repo's own census: …"), which must say what the
// committed lint-lifetimes.json says.
func TestLintDocLifetimesCensus(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "LINT.md"))
	if err != nil {
		t.Fatal(err)
	}
	quote := regexp.MustCompile(`The repo's own census: (\d+) regions, (\d+) marks, (\d+) checkouts — (\d+) released-in-scope, (\d+) worker-confined, (\d+) refused`).
		FindStringSubmatch(strings.Join(strings.Fields(string(doc)), " "))
	if quote == nil {
		t.Fatal(`docs/LINT.md has no "The repo's own census: N regions, N marks, N checkouts — N released-in-scope, N worker-confined, N refused" line`)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "lint-lifetimes.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art struct{ Regions, Marks, Checkouts, Released, WorkerConfined, Refused int }
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(art.Regions, art.Marks, art.Checkouts, art.Released, art.WorkerConfined, art.Refused)
	if got := strings.Join(quote[1:], " "); got != want {
		t.Errorf("docs/LINT.md quotes regions, marks, checkouts, released, worker-confined, refused as %s; lint-lifetimes.json says %s", got, want)
	}
}
