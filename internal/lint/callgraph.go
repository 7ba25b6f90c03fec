package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// funcInfo is one function or method in the module, with the constructs
// its body uses directly and the calls it makes.
type funcInfo struct {
	pkg    *pkgInfo
	file   *fileInfo
	decl   *ast.FuncDecl
	mask   construct
	counts map[construct]int // construct bit -> number of sites
	calls  []callRef
}

func (fi *funcInfo) use(bits construct) {
	fi.mask |= bits
	if bits == 0 {
		return
	}
	if fi.counts == nil {
		fi.counts = map[construct]int{}
	}
	for b := construct(1); b != 0 && b <= bits; b <<= 1 {
		if bits&b != 0 {
			fi.counts[b]++
		}
	}
}

// callRef is an unresolved call edge. For pkg-qualified calls, pkgs
// holds the single resolved package; for bare and method calls it holds
// the candidate packages (own package, plus every imported in-module
// package for method calls), and resolution is by name.
type callRef struct {
	name string
	pkgs []string
}

// analysis carries all per-run state.
type analysis struct {
	fset   *token.FileSet
	mod    string
	pkgs   map[string]*pkgInfo
	filter *dirFilter

	funcs map[string][]*funcInfo // pkgPath -> functions (by any name)

	census      StaticCensus
	censusDiags []Diag
	diags       []Diag

	certs certIndex // proved certificate sites by (file, line)

	loader *typeLoader // typed(): shared by every certification pass of the run
}

// typed returns the analysis's type loader, created on first use: the
// syntactic rules (Run) never pay for type checking, and the typed
// passes share one checked module and one set of summaries.
func (a *analysis) typed() *typeLoader {
	if a.loader == nil {
		a.loader = newTypeLoader(a)
	}
	return a.loader
}

// report appends a diagnostic, honoring the directory filter.
func (a *analysis) report(d Diag) {
	dir := path.Dir(d.File)
	if dir == "." {
		dir = ""
	}
	if a.filter.match(dir) {
		a.diags = append(a.diags, d)
	}
}

// modRel converts an import path to a module-relative package path, or
// ok=false for out-of-module imports.
func (a *analysis) modRel(importPath string) (string, bool) {
	if importPath == a.mod {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, a.mod+"/"); ok {
		return rest, true
	}
	return "", false
}

// inModule reports whether a resolved function is declared in the
// analyzed module.
func (a *analysis) inModule(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	_, ok := a.modRel(fn.Pkg().Path())
	return ok
}

// sortedPkgs returns packages in deterministic path order.
func (a *analysis) sortedPkgs() []*pkgInfo {
	out := make([]*pkgInfo, 0, len(a.pkgs))
	for _, p := range a.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// buildIndex walks every function body once, recording its construct
// mask and outgoing calls.
func (a *analysis) buildIndex() {
	a.funcs = map[string][]*funcInfo{}
	for _, pkg := range a.sortedPkgs() {
		for _, f := range pkg.files {
			for _, decl := range f.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi := &funcInfo{pkg: pkg, file: f, decl: fd}
				a.scanFuncBody(fi)
				a.funcs[pkg.path] = append(a.funcs[pkg.path], fi)
			}
		}
	}
}

// bodyInterfaceMethods maps scheduler primitives that accept an
// interface-valued body to the method the scheduler invokes on it. A
// call like w.ForBody(lo, hi, grain, b) never names RunRange at the
// call site, so without this edge the coverage BFS would lose the body
// type's method entirely.
var bodyInterfaceMethods = map[string][]string{
	"ForBody":   {"RunRange"},
	"CountSort": {"CountRange", "PlaceRange"},
}

// scanFuncBody fills fi.mask and fi.calls from the function body
// (including nested closures).
func (a *analysis) scanFuncBody(fi *funcInfo) {
	f := fi.file
	// Candidate packages for method-call resolution: own package plus
	// every imported in-module package.
	var methodPkgs []string
	methodPkgs = append(methodPkgs, fi.pkg.path)
	for _, imp := range f.imports {
		if rel, ok := a.modRel(imp); ok {
			methodPkgs = append(methodPkgs, rel)
		}
	}
	sort.Strings(methodPkgs)

	// ref records a potential call edge: the callee of a call, or a
	// function or method *value* (a bare identifier or method value
	// passed as an argument or bound to a variable) — the body runs
	// when some callee invokes the value, so the coverage BFS must
	// traverse it. Names that resolve to no function declaration are
	// harmless noise. It returns the selector name of a method or
	// qualified reference.
	ref := func(e ast.Expr) string {
		switch v := e.(type) {
		case *ast.Ident:
			fi.calls = append(fi.calls, callRef{name: v.Name, pkgs: []string{fi.pkg.path}})
		case *ast.SelectorExpr:
			pkgs := methodPkgs
			if id, ok := v.X.(*ast.Ident); ok {
				if imp, isImport := f.imports[id.Name]; isImport {
					rel, inModule := a.modRel(imp)
					if !inModule {
						return v.Sel.Name
					}
					pkgs = []string{rel}
				}
			}
			// A method on a value resolves by name across the own
			// package and imported in-module packages.
			fi.calls = append(fi.calls, callRef{name: v.Sel.Name, pkgs: pkgs})
			return v.Sel.Name
		}
		return ""
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			fi.use(cGoStmt)
		case *ast.ValueSpec:
			if v.Type != nil {
				fi.use(declConstruct(f, v.Type))
			}
			for _, val := range v.Values {
				ref(val)
			}
		case *ast.AssignStmt:
			// f := helper / g := x.Method binds a function value the
			// callee may invoke later.
			for _, rhs := range v.Rhs {
				ref(rhs)
			}
		case *ast.CallExpr:
			for _, arg := range v.Args {
				ref(arg)
			}
			if _, _, mask := classifyCall(f, v); mask != 0 {
				fi.use(mask)
				return true
			}
			// Unwrap explicit generic instantiation: helper[T](...) and
			// pkg.Helper[T](...) call the generic declaration.
			fun := v.Fun
			switch inst := fun.(type) {
			case *ast.IndexExpr:
				fun = inst.X
			case *ast.IndexListExpr:
				fun = inst.X
			}
			for _, m := range bodyInterfaceMethods[ref(fun)] {
				fi.calls = append(fi.calls, callRef{name: m, pkgs: methodPkgs})
			}
		}
		return true
	})
}

// reachableMask unions the construct masks of every function reachable
// from the given seed functions, traversing in-module edges but never
// entering substrate packages (the substrate's internals are its own
// encapsulation; the caller's classified calls already recorded the
// primitives it reached for).
func (a *analysis) reachableMask(seeds []*funcInfo) construct {
	var mask construct
	for fi := range a.reachableFuncs(seeds) {
		mask |= fi.mask
	}
	return mask
}

// reachableFuncs returns every function reachable from the seeds
// through in-module edges, never entering substrate packages.
func (a *analysis) reachableFuncs(seeds []*funcInfo) map[*funcInfo]bool {
	visited := map[*funcInfo]bool{}
	queue := append([]*funcInfo(nil), seeds...)
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		if visited[fi] {
			continue
		}
		visited[fi] = true
		for _, ref := range fi.calls {
			for _, pkgPath := range ref.pkgs {
				pkg, ok := a.pkgs[pkgPath]
				if !ok || pkg.role == RoleSubstrate {
					continue
				}
				for _, target := range a.funcs[pkgPath] {
					if target.decl.Name.Name == ref.name && !visited[target] {
						queue = append(queue, target)
					}
				}
			}
		}
	}
	return visited
}

// fileFuncs returns the functions declared in one file.
func (a *analysis) fileFuncs(f *fileInfo) []*funcInfo {
	var out []*funcInfo
	for _, fi := range a.funcs[f.pkg.path] {
		if fi.file == f {
			out = append(out, fi)
		}
	}
	return out
}

// packageStats renders the per-package scared-construct census.
func (a *analysis) packageStats() []PackageStats {
	var out []PackageStats
	for _, pkg := range a.sortedPkgs() {
		ps := PackageStats{Path: pkg.path, Role: pkg.role, Files: len(pkg.files)}
		if ps.Path == "" {
			ps.Path = "."
		}
		for _, fi := range a.funcs[pkg.path] {
			ps.Unchecked += fi.counts[cUncheckedSng] + fi.counts[cUncheckedRng]
			ps.Atomics += fi.counts[cAtomic]
			ps.SyncDecls += fi.counts[cSyncDecl]
			ps.GoStmts += fi.counts[cGoStmt]
			ps.AWHelpers += fi.counts[cAWHelper] + fi.counts[cLocks]
			ps.Engines += fi.counts[cTaskEngine]
		}
		out = append(out, ps)
	}
	return out
}
