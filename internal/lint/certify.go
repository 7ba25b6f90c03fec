package lint

// The certification pass: for every IndForEach / IndChunks / Scatter /
// *Unchecked call site outside the substrate, run the offset-provenance
// prover (provenance.go) over type-checked packages (typecheck.go) and
// emit a certificate record. A proved *Unchecked site is "certified" —
// the Scared call is Fearless under certificate, and the containment
// rules accept it without a DeclareSite or marker. A proved *checked*
// site is "elidable-check": the run-time uniqueness/monotonicity check
// duplicates what the proof already knows (the paper's Fig 5 cost), so
// the kernel may switch to the Unchecked variant. Everything else is
// "refused" with the first reason the prover found.

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Certificate statuses.
const (
	CertCertified = "certified"
	CertElidable  = "elidable-check"
	CertRefused   = "refused"
)

// CertSite is one examined call site.
type CertSite struct {
	sitePos            // File, Line, Col: the leading "file", "line", "col" JSON fields
	Func      string   `json:"func"`      // enclosing function
	Primitive string   `json:"primitive"` // core.<name>
	Pattern   string   `json:"pattern"`   // SngInd | RngInd
	Checked   bool     `json:"checked"`   // pays a run-time check
	Status    string   `json:"status"`    // certified | elidable-check | refused
	Property  string   `json:"property,omitempty"`
	Source    string   `json:"source,omitempty"` // packindex | affine-fill | permutation | scan
	Proof     []string `json:"proof,omitempty"`
	Reason    string   `json:"reason,omitempty"`
	Benches   []string `json:"benches,omitempty"` // benches whose kernels reach this site
}

func (s CertSite) String() string {
	head := fmt.Sprintf("%s:%d:%d: core.%s [%s] %s", s.File, s.Line, s.Col, s.Primitive, s.Pattern, s.Status)
	if s.Status == CertRefused {
		return head + ": " + s.Reason
	}
	out := head + ": " + s.Property + " via " + s.Source
	if len(s.Benches) > 0 {
		out += " (benches: " + strings.Join(s.Benches, ", ") + ")"
	}
	return out
}

// CertReport is the machine-readable certificate file (lint-certs.json).
type CertReport struct {
	Version   int        `json:"version"`
	Module    string     `json:"module"`
	Certified int        `json:"certified"`
	Elidable  int        `json:"elidable"`
	Refused   int        `json:"refused"`
	Sites     []CertSite `json:"sites"`
}

// Certify runs the certification pass over the module under cfg.Root.
func Certify(cfg Config) (*CertReport, error) {
	rep, _, _, err := RunPasses(cfg, true, false, false)
	return rep, err
}

// certify runs the pass over an already-built analysis.
func (a *analysis) certify() *CertReport {
	loader := a.typed()
	rep := &CertReport{Version: 1, Module: a.mod}

	benchCover := a.benchCoverage()

	for _, pkg := range a.sortedPkgs() {
		if pkg.role == RoleSubstrate {
			continue
		}
		for _, fi := range a.funcs[pkg.path] {
			sites := collectSites(fi.file, fi.decl)
			if len(sites) == 0 {
				continue // only packages that call a certifiable primitive pay for type checking
			}
			var pr *prover
			if tp := loader.check(pkg.path); tp != nil {
				pr = newProver(a, tp, fi.file, fi.decl, loader)
			}
			for _, s := range sites {
				cs := CertSite{
					sitePos:   a.sitePos(fi.file, s.call),
					Func:      fi.decl.Name.Name,
					Primitive: s.name,
					Pattern:   s.prim.pattern().String(),
					Checked:   s.prim.checked(),
					Benches:   benchCover[fi],
				}
				proof := refusal("package %s failed to type-check", pkg.path)
				if pr != nil {
					s.ctx = pr.ctxOf(pr.ff.pathTo(s.call))
					proof = pr.prove(s)
				}
				if proof.ok {
					cs.Status = CertElidable
					if !s.prim.checked() {
						cs.Status = CertCertified
					}
					cs.Property = proof.property
					cs.Source = proof.source
					cs.Proof = proof.chain
				} else {
					cs.Status = CertRefused
					cs.Reason = proof.reason
				}
				rep.Sites = append(rep.Sites, cs)
			}
		}
	}

	sortSites(rep.Sites)
	for _, s := range rep.Sites {
		switch s.Status {
		case CertCertified:
			rep.Certified++
		case CertElidable:
			rep.Elidable++
		default:
			rep.Refused++
		}
	}
	return rep
}

// collectSites gathers the certifiable call sites in one function,
// syntactically: sites in a package that fails to type-check are still
// listed so they can be refused.
func collectSites(f *fileInfo, fd *ast.FuncDecl) []*targetSite {
	var sites []*targetSite
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, prim := primitiveOf(f, call)
		if prim == nil || prim.offsets == 0 {
			return true
		}
		if len(call.Args) > 0 && isNilIdent(call.Args[0]) {
			return true // sequential oracle use: no parallel check to certify
		}
		sites = append(sites, &targetSite{call: call, name: name, prim: prim, pos: call.Pos()})
		return true
	})
	return sites
}

// benchCoverage maps each function to the sorted list of benches whose
// declaring files reach it through the in-module call graph.
func (a *analysis) benchCoverage() map[*funcInfo][]string {
	fileByRel := map[string]*fileInfo{}
	for _, pkg := range a.pkgs {
		for _, f := range pkg.files {
			fileByRel[f.rel] = f
		}
	}
	benchFiles := map[string]map[*fileInfo]bool{}
	for _, s := range a.census.Sites {
		f := fileByRel[s.File]
		if f == nil {
			continue
		}
		if benchFiles[s.Bench] == nil {
			benchFiles[s.Bench] = map[*fileInfo]bool{}
		}
		benchFiles[s.Bench][f] = true
	}
	cover := map[*funcInfo][]string{}
	benches := make([]string, 0, len(benchFiles))
	for b := range benchFiles {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	for _, b := range benches {
		var seeds []*funcInfo
		for f := range benchFiles[b] {
			seeds = append(seeds, a.fileFuncs(f)...)
		}
		for fi := range a.reachableFuncs(seeds) {
			cover[fi] = append(cover[fi], b)
		}
	}
	return cover
}

// Marshal renders the report as the canonical lint-certs.json bytes.
func (r *CertReport) Marshal() []byte { return marshalArtifact(r) }

// String renders the per-site table and summary rpblint -certify prints.
func (r *CertReport) String() string {
	return renderSites(r.Sites, fmt.Sprintf("certify: %d certified, %d elidable-check, %d refused\n",
		r.Certified, r.Elidable, r.Refused))
}

// LoadCerts reads a certificate file.
func LoadCerts(path string) (*CertReport, error) {
	return loadArtifact[CertReport](path, "certificate file")
}

// certIndex indexes proved sites by (file, line) for the containment
// rules.
type certIndex map[string]map[int]bool

func (r *CertReport) index() certIndex {
	idx := certIndex{}
	for _, s := range r.Sites {
		if s.Status == CertRefused {
			continue
		}
		if idx[s.File] == nil {
			idx[s.File] = map[int]bool{}
		}
		idx[s.File][s.Line] = true
	}
	return idx
}

// certCovered reports whether a current certificate proves the site at
// (file, line).
func (a *analysis) certCovered(rel string, line int) bool {
	return a.certs != nil && a.certs[rel][line]
}
