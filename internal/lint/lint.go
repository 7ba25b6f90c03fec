// Package lint is rpblint's engine: a source-level "fear checker" for
// this reproduction, the static complement to internal/core's run-time
// checks.
//
// The paper's central claim is that Rust makes most parallel patterns
// fearless at *compile time*; the Go port reproduces the split only at
// *run time* (dynamic uniqueness/monotonicity checks, the DeclareSite
// census registry). This package closes the gap the way large
// unsafe-bearing codebases stay honest in practice — by statically
// auditing where the scary constructs live and checking the declared
// taxonomy against the code:
//
//  1. Static pattern census. Every call site of a core primitive is
//     classified into the paper's Table 3 taxonomy (Reduce/Sum → RO,
//     ForRange/ForEachIdx → Stride, Chunks/scans/packs → Block,
//     Sort/SortBy/Join → D&C, IndForEach[Unchecked] → SngInd,
//     IndChunks[Unchecked] → RngInd, atomics/locks/raw sync → AW), and
//     the core.DeclareSite registry is re-derived from source, so the
//     Table 1 / Fig 3 census is verifiable instead of self-reported.
//  2. Cross-checks. Inside internal/bench, a primitive call whose
//     pattern the benchmark never declares is an undeclared site; a
//     declared irregular pattern with no supporting construct anywhere
//     in the benchmark's kernel is a stale declaration; re-declaring a
//     (bench, label) site with a different pattern is a mismatch.
//  3. Scared-code containment. Unchecked primitives, raw goroutines,
//     and raw atomics/mutexes in internal/bench must be covered by an
//     irregular site declaration or an explicit "//lint:scared <reason>"
//     marker — the Go analog of an audited unsafe block. Unchecked
//     primitives are forbidden outright in examples/, and a *Worker
//     escaping into a raw goroutine is flagged everywhere.
//  4. Certification. Three typed passes over the whole module, each
//     with a committed, staleness-gated artifact: offset provenance
//     (certify.go: the uniqueness/monotonicity a run-time check would
//     test, proved), parallel-body writes (races.go: every write a
//     parallel region makes is exclusive, synchronized, or refused) and
//     arena lifetimes (lifetimes.go: every checkout dies before its
//     memory is reused). A refusal needs a //lint:scared audit.
//
// What the passes know about each core primitive is one table
// (primitives.go). The package is stdlib-only. Items 1–3 resolve
// syntactically (go/ast: import aliases are honored, method calls
// resolve by name across imported in-module packages); item 4
// type-checks the module's packages with go/types from the same parsed
// files (typecheck.go), the standard library through go/importer's
// source importer.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Role classifies a package directory's position in the suite's
// encapsulation hierarchy; rules are scoped by role.
type Role string

const (
	// RoleSubstrate packages (core, sched, arena, mq, specfor) implement
	// the primitives and their scratch memory: they encapsulate the
	// scared constructs the way a Rust library encapsulates unsafe
	// blocks. They are censused (how much
	// scared code the substrate contains) but not linted.
	RoleSubstrate Role = "substrate"
	// RoleBench packages declare census sites and are fully checked:
	// census cross-checks, containment, and worker-escape.
	RoleBench Role = "bench"
	// RoleKernel packages (suffix, geom, graph, ...) hold algorithm
	// kernels benches delegate to: worker-escape applies, and their
	// constructs serve as evidence for the benches that call them.
	RoleKernel Role = "kernel"
	// RoleExample packages are end-user documentation: unchecked
	// primitives are forbidden outright, worker-escape applies.
	RoleExample Role = "example"
)

// roleOf maps a slash-separated path relative to the module root to the
// role its rules run under.
func roleOf(rel string) Role {
	switch {
	case rel == "internal/core" || rel == "internal/sched" ||
		rel == "internal/arena" ||
		rel == "internal/mq" || rel == "internal/specfor":
		return RoleSubstrate
	case rel == "internal/bench" || strings.HasPrefix(rel, "internal/bench/"):
		return RoleBench
	case rel == "examples" || strings.HasPrefix(rel, "examples/"):
		return RoleExample
	default:
		return RoleKernel
	}
}

// Diag is one diagnostic: a rule violation at a source position.
type Diag struct {
	File    string `json:"file"` // path relative to the analysis root
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Bench   string `json:"bench,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	Fear    string `json:"fear,omitempty"`
	Msg     string `json:"msg"`
}

func (d Diag) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
	if d.Fear != "" {
		s += fmt.Sprintf(" [%s]", d.Fear)
	}
	return s
}

// PackageStats counts the scared constructs a package contains — the
// encapsulation census of the related unsafe-auditing work, applied to
// this repo's own layers.
type PackageStats struct {
	Path      string `json:"path"` // relative to module root
	Role      Role   `json:"role"`
	Files     int    `json:"files"`
	Unchecked int    `json:"unchecked"`  // *Unchecked primitive calls
	Atomics   int    `json:"atomics"`    // sync/atomic calls and decls
	SyncDecls int    `json:"syncDecls"`  // sync.Mutex/WaitGroup/... decls
	GoStmts   int    `json:"goStmts"`    // raw go statements
	AWHelpers int    `json:"awHelpers"`  // WriteMin/CASLoop/ShardedLocks
	Engines   int    `json:"taskEngine"` // mq.Process / specfor.Run
}

// Scared reports the total scared-construct count.
func (p PackageStats) Scared() int {
	return p.Unchecked + p.Atomics + p.SyncDecls + p.GoStmts + p.AWHelpers + p.Engines
}

// Report is the full analysis result.
type Report struct {
	Census   StaticCensus   `json:"census"`
	Packages []PackageStats `json:"packages"`
	Diags    []Diag         `json:"diagnostics"`
}

// Config selects what to analyze.
type Config struct {
	// Root is the module root (the directory holding go.mod).
	Root string
	// Dirs restricts which directories (relative to Root) Run reports
	// diagnostics for; empty means the whole module. The certification
	// passes ignore it: an artifact describes the whole module.
	Dirs []string
}

// newAnalysis parses the module under cfg.Root and builds the function
// index — the shared front half of Run and Certify.
func newAnalysis(cfg Config) (*analysis, error) {
	root := cfg.Root
	if root == "" {
		root = "."
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root (no go.mod): %w", root, err)
	}
	mod, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	pkgs, fset, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	a := &analysis{
		fset:   fset,
		mod:    mod,
		pkgs:   pkgs,
		filter: newDirFilter(cfg.Dirs),
	}
	a.buildIndex()
	return a, nil
}

// RunPasses runs the requested certification passes in turn over one
// parsed and type-checked module — one analysis, one type loader, one
// set of def-use facts — and returns each requested pass's report (nil
// for the others).
func RunPasses(cfg Config, certify, races, lifetimes bool) (certs *CertReport, rr *RaceReport, lr *LifeReport, err error) {
	a, err := newAnalysis(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if certify {
		a.census = a.extractCensus() // bench coverage of each site
		certs = a.certify()
	}
	if races {
		rr = a.races()
	}
	if lifetimes {
		lr = a.lifetimes()
	}
	return certs, rr, lr, nil
}

// loadCertIndex loads <Root>/lint-certs.json, whose proved sites the
// containment rules accept. It is best-effort: a missing file means no
// certificates, hence no coverage — `make certs` is what keeps the
// committed file honest.
func (a *analysis) loadCertIndex(cfg Config) error {
	root := cfg.Root
	if root == "" {
		root = "."
	}
	path := filepath.Join(root, "lint-certs.json")
	certs, err := LoadCerts(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("lint: unreadable %s (regenerate with rpblint -certify -write): %w", path, err)
	}
	a.certs = certs.index()
	return nil
}

// Run analyzes the module under cfg.Root and returns the census, the
// per-package scared-construct stats, and all diagnostics.
func Run(cfg Config) (*Report, error) {
	a, err := newAnalysis(cfg)
	if err != nil {
		return nil, err
	}
	if err := a.loadCertIndex(cfg); err != nil {
		return nil, err
	}

	rep := &Report{}
	a.census = a.extractCensus()
	rep.Census = a.census
	for _, d := range a.censusDiags {
		a.report(d)
	}
	a.checkFiles()
	rep.Packages = a.packageStats()
	sort.Slice(a.diags, func(i, j int) bool {
		di, dj := a.diags[i], a.diags[j]
		if di.File != dj.File {
			return di.File < dj.File
		}
		if di.Line != dj.Line {
			return di.Line < dj.Line
		}
		if di.Col != dj.Col {
			return di.Col < dj.Col
		}
		return di.Rule < dj.Rule
	})
	rep.Diags = a.diags
	return rep, nil
}

// moduleName reads the module path from a go.mod file.
func moduleName(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", path)
}

// fileInfo is one parsed non-test source file.
type fileInfo struct {
	pkg     *pkgInfo
	rel     string // path relative to module root
	ast     *ast.File
	imports map[string]string // local name -> import path
	markers map[int]string    // line -> //lint:scared reason
}

// pkgInfo is one parsed directory.
type pkgInfo struct {
	path  string // import path relative to module root ("" for root)
	role  Role
	files []*fileInfo
}

// skipDirs are directory base names no Go package lives under.
var skipDirs = map[string]bool{
	".git": true, ".github": true, "testdata": true,
	"docs": true,
}

// skipPath is the one package skipped, by its slash-separated path from
// the module root: a package elsewhere named inputs is still analysed.
const skipPath = "benchmark/inputs"

// parseModule parses every non-test .go file under root, grouped by
// directory.
func parseModule(root string) (map[string]*pkgInfo, *token.FileSet, error) {
	fset := token.NewFileSet()
	pkgs := map[string]*pkgInfo{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if skipDirs[d.Name()] || rel == skipPath || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "." {
			dir = ""
		}
		p := pkgs[dir]
		if p == nil {
			p = &pkgInfo{path: dir, role: roleOf(dir)}
			pkgs[dir] = p
		}
		fi := &fileInfo{
			pkg:     p,
			rel:     rel,
			ast:     f,
			imports: importMap(f),
			markers: scanMarkers(fset, f),
		}
		p.files = append(p.files, fi)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return pkgs, fset, nil
}

// importMap maps each file-local import name to its import path.
func importMap(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		m[name] = path
	}
	return m
}

// markerPrefix is the audited-scared escape hatch, the analog of an
// unsafe block with a review comment.
const markerPrefix = "//lint:scared"

// scanMarkers collects //lint:scared markers by line. A marker with an
// empty reason maps to the empty string (reported by checkFiles).
func scanMarkers(fset *token.FileSet, f *ast.File) map[int]string {
	m := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, markerPrefix); ok {
				m[fset.Position(c.Pos()).Line] = strings.TrimSpace(rest)
			}
		}
	}
	return m
}

// dirFilter restricts which directories produce diagnostics (census and
// call-graph evidence always use the whole module).
type dirFilter struct{ dirs []string }

func newDirFilter(dirs []string) *dirFilter {
	f := &dirFilter{}
	for _, d := range dirs {
		d = filepath.ToSlash(strings.TrimPrefix(d, "./"))
		d = strings.TrimSuffix(d, "...")
		d = strings.Trim(d, "/")
		if d == "." {
			d = ""
		}
		f.dirs = append(f.dirs, d)
	}
	return f
}

func (f *dirFilter) match(rel string) bool {
	if len(f.dirs) == 0 {
		return true
	}
	for _, d := range f.dirs {
		if d == "" || rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
