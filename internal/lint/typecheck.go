package lint

// The certification pass (certify.go, provenance.go) needs real type
// information: the syntactic engine cannot tell two variables named
// "offsets" apart, and offset provenance is a statement about one
// *types.Var. This file loads it with the standard library only:
// in-module packages are type-checked recursively from the ASTs
// parseModule already produced, the standard library is resolved by the
// go/importer "source" importer, and anything that cannot be resolved
// is replaced by an empty stub package. Type errors are collected, not
// fatal — go/types keeps checking past them and still records the
// def/use information the provenance analysis resolves identifiers
// with, so a package with unresolved corners simply has its affected
// sites refused instead of crashing the pass.

import (
	"go/ast"
	"go/importer"
	"go/types"
	"strings"
)

// typedPkg is one in-module package with full type information.
type typedPkg struct {
	pkg  *pkgInfo
	tpkg *types.Package
	info *types.Info
	errs []error // collected type errors (informational)
}

// typeLoader memoizes type checking across packages of one analysis,
// and carries the interprocedural core built on top of it (core.go,
// facts.go): the declaration index, the per-function def-use facts, and
// one summary table per pass.
type typeLoader struct {
	a        *analysis
	std      types.Importer
	checked  map[string]*typedPkg
	inflight map[string]bool
	stubs    map[string]*types.Package

	decls   map[*types.Func]*funcDecl // declOf's index, filled per package
	indexed map[string]bool
	facts   map[*ast.FuncDecl]*funcFacts // factsOf's memo

	sums    summaryTable[sumKey, *fnSummary]        // the prover's helper summaries (summary.go)
	effects summaryTable[*types.Func, *writeEffect] // write effects and retention (raceeffect.go)

	// The module-wide box prescan (prescanBoxes), read by the store
	// rule (writes.go keeps) under the callee summary's retention and
	// the lifetimes walk. boxTypes are the named types instantiated in
	// arena.AcquireBox[T] anywhere in the module, keyed by type name:
	// per-worker reusable state a checkout may legitimately transit
	// through. boxCleared records "Type.field" pairs assigned nil
	// somewhere in the module — the clearing half of a box-field
	// handoff. A checkout stored into a box field of a
	// *parameter* is worker-confined only when the field is provably
	// cleared before the box is reused.
	boxTypes, boxCleared map[string]bool
}

func newTypeLoader(a *analysis) *typeLoader {
	return &typeLoader{
		a:        a,
		std:      importer.ForCompiler(a.fset, "source", nil),
		checked:  map[string]*typedPkg{},
		inflight: map[string]bool{},
		stubs:    map[string]*types.Package{},
		decls:    map[*types.Func]*funcDecl{},
		indexed:  map[string]bool{},
		facts:    map[*ast.FuncDecl]*funcFacts{},
		effects:  summaryTable[*types.Func, *writeEffect]{same: (*writeEffect).sameShape},
	}
}

// Import implements types.Importer: module-internal paths re-enter the
// recursive checker, everything else goes to the source importer with a
// stub fallback.
func (l *typeLoader) Import(path string) (*types.Package, error) {
	if rel, ok := l.a.modRel(path); ok {
		if tp := l.check(rel); tp != nil {
			return tp.tpkg, nil
		}
		return l.stub(path), nil
	}
	if l.std != nil {
		if p, err := l.std.Import(path); err == nil && p != nil {
			return p, nil
		}
	}
	return l.stub(path), nil
}

// stub synthesizes an empty, complete package so checking can continue;
// selections into it produce ordinary type errors, which are collected.
func (l *typeLoader) stub(path string) *types.Package {
	if p, ok := l.stubs[path]; ok {
		return p
	}
	name := path[strings.LastIndex(path, "/")+1:]
	p := types.NewPackage(path, name)
	p.MarkComplete()
	l.stubs[path] = p
	return p
}

// check type-checks one in-module package (memoized; nil for unknown
// directories, import cycles, and packages go/types gave up on).
func (l *typeLoader) check(rel string) *typedPkg {
	if tp, done := l.checked[rel]; done {
		return tp
	}
	pkg := l.a.pkgs[rel]
	if pkg == nil || len(pkg.files) == 0 || l.inflight[rel] {
		l.checked[rel] = nil
		return nil
	}
	l.inflight[rel] = true
	defer func() { l.inflight[rel] = false }()

	tp := &typedPkg{
		pkg: pkg,
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { tp.errs = append(tp.errs, err) },
	}
	var files []*ast.File
	for _, f := range pkg.files {
		files = append(files, f.ast)
	}
	importPath := l.a.mod
	if rel != "" {
		importPath = l.a.mod + "/" + rel
	}
	tp.tpkg, _ = conf.Check(importPath, l.a.fset, files, tp.info)
	if tp.tpkg == nil {
		tp = nil
	}
	l.checked[rel] = tp
	return tp
}
