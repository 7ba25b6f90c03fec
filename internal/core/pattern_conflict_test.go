package core

import "testing"

// resetSites clears the site registry and conflict log.
func resetSites() {
	siteMu.Lock()
	defer siteMu.Unlock()
	siteSet = map[string]Site{}
	siteOrder = nil
	siteConflicts = nil
}

// TestDeclareSiteConflict covers the registry's three re-declaration
// outcomes: new site, idempotent repeat, and conflicting pattern.
func TestDeclareSiteConflict(t *testing.T) {
	resetSites()
	defer resetSites()

	if err := DeclareSite("x", "shared write", SngInd); err != nil {
		t.Fatalf("first declaration: %v", err)
	}
	if err := DeclareSite("x", "shared write", SngInd); err != nil {
		t.Fatalf("idempotent re-declaration: %v", err)
	}
	if got := SiteConflicts(); len(got) != 0 {
		t.Fatalf("conflicts after idempotent re-declaration: %v", got)
	}

	err := DeclareSite("x", "shared write", AW)
	if err == nil {
		t.Fatal("conflicting re-declaration: want error, got nil")
	}
	conflicts := SiteConflicts()
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v, want 1 entry", conflicts)
	}
	c := conflicts[0]
	if c.Bench != "x" || c.Label != "shared write" || c.First != SngInd || c.Redeclared != AW {
		t.Fatalf("conflict = %+v, want {x, shared write, SngInd, AW}", c)
	}

	// The first declaration wins: the census is unchanged by the
	// conflicting attempt.
	sites := Sites()
	if len(sites) != 1 || sites[0].Pattern != SngInd {
		t.Fatalf("sites = %v, want single SngInd site", sites)
	}

	resetSites()
	if got := SiteConflicts(); len(got) != 0 {
		t.Fatalf("conflicts survive resetSites: %v", got)
	}
}
