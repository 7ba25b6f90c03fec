package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// coreSignatures type-checks internal/core of the module under root
// with the package's own loader and returns its exported functions.
func coreSignatures(t *testing.T, root string) map[string]*types.Signature {
	t.Helper()
	a, err := newAnalysis(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	tp := a.typed().check("internal/core")
	if tp == nil {
		t.Fatalf("%s: internal/core did not load", root)
	}
	sigs := map[string]*types.Signature{}
	scope := tp.tpkg.Scope()
	for _, name := range scope.Names() {
		if fn, ok := scope.Lookup(name).(*types.Func); ok && fn.Exported() {
			sigs[name] = fn.Type().(*types.Signature)
		}
	}
	return sigs
}

// paramKinds reduces a signature to what the table's positions depend
// on: where the worker, the closures and the slices sit.
func paramKinds(sig *types.Signature) []string {
	var kinds []string
	for i := 0; i < sig.Params().Len(); i++ {
		kind := "other"
		switch u := sig.Params().At(i).Type().Underlying().(type) {
		case *types.Pointer:
			if tn := namedType(u); tn != nil && tn.Name() == "Worker" {
				kind = "worker"
			}
		case *types.Signature:
			kind = "func"
		case *types.Slice:
			kind = "slice"
			if _, ok := u.Elem().Underlying().(*types.Signature); ok {
				kind = "funcs"
			}
		}
		kinds = append(kinds, kind)
	}
	return kinds
}

// tableProblems checks a primitive table against the library's real
// signatures, one line per disagreement.
func tableProblems(table map[string]*primitive, sigs map[string]*types.Signature) []string {
	var out []string
	bad := func(name, format string, args ...any) {
		out = append(out, "core."+name+": "+fmt.Sprintf(format, args...))
	}
	for name, sig := range sigs {
		if kinds := paramKinds(sig); len(kinds) > 0 && kinds[0] == "worker" && table[name] == nil {
			bad(name, "takes a worker but has no row")
		}
	}
	for name, p := range table {
		sig := sigs[name]
		if sig == nil {
			bad(name, "row names no exported function")
			continue
		}
		kinds := paramKinds(sig)
		at := func(i int) string {
			if i < len(kinds) {
				return kinds[i]
			}
			return "missing"
		}
		if takes := at(0) == "worker"; takes != p.worker() {
			bad(name, "class says worker argument %v, signature says %v", p.worker(), takes)
		}
		for _, b := range p.bodies {
			if at(b) != "func" {
				bad(name, "body position %d is %s, want func", b, at(b))
			}
		}
		if p.once && at(0) != "func" {
			bad(name, "once, but argument 0 is %s, want func", at(0))
		}
		if len(p.bodies) > 0 && at(p.bodies[0]) == "func" {
			body := sig.Params().At(p.bodies[0]).Type().Underlying().(*types.Signature)
			need := slices.Max(append(append([]int{-1}, p.task...), p.handed...))
			if p.ranged {
				need = max(need, 1)
			}
			if need >= body.Params().Len() {
				bad(name, "body takes %d params, row describes param %d", body.Params().Len(), need)
			}
		}
		for role, pos := range map[string]int{"out": p.out, "offsets": p.offsets, "scans": p.scans, "permutes": p.permutes, "reads": p.reads} {
			if pos > 0 && at(pos) != "slice" {
				bad(name, "%s position %d is %s, want slice", role, pos, at(pos))
			}
		}
		for role, pos := range map[string]int{"lo": p.lo, "hi": p.hi, "total": p.total} {
			if pos > 0 && at(pos) != "other" {
				bad(name, "%s position %d is %s, want a scalar", role, pos, at(pos))
			}
		}
		if len(p.handed) > 0 && p.out == 0 {
			bad(name, "handed params but no out argument for them to alias")
		}
		if len(p.bodies) == 0 && (len(p.task)+len(p.handed) > 0 || p.ranged || p.lo+p.hi > 0) {
			bad(name, "describes a per-task body but has no body position")
		}
		if p.lo > 0 && p.hi <= p.lo {
			bad(name, "lo position %d without a hi position after it", p.lo)
		}
		if p.twin != "" && (table[p.twin] == nil || !table[p.twin].checked()) {
			bad(name, "twin %q is not a checked primitive", p.twin)
		}
		// Only a worker-taking function runs closures in parallel.
		unwalked := false
		for i, k := range kinds {
			if p.worker() && (k == "func" || k == "funcs") && !slices.Contains(p.bodies, i) {
				unwalked = true
			}
		}
		if unwalked != (p.unmodeled != "") {
			bad(name, "closure parameter outside bodies: %v, written reason: %q", unwalked, p.unmodeled)
		}
	}
	sort.Strings(out)
	return out
}

// TestPrimitiveTableMatchesCore checks the one primitive table against
// the library instead of against itself: rows and worker-taking
// functions correspond, every position indexes a parameter of the kind
// its role needs, a closure the passes do not walk carries a reason that
// docs/LINT.md repeats, and every fixture's core stub has the real
// parameter kinds. Two mutants prove the check can fail.
func TestPrimitiveTableMatchesCore(t *testing.T) {
	root := filepath.Join("..", "..")
	sigs := coreSignatures(t, root)
	for _, p := range tableProblems(primitives, sigs) {
		t.Error(p)
	}

	doc, err := os.ReadFile(filepath.Join(root, "docs", "LINT.md"))
	if err != nil {
		t.Fatal(err)
	}
	caveats := strings.Join(strings.Fields(string(doc)), " ")
	for name, p := range primitives {
		if p.unmodeled != "" && !strings.Contains(caveats, "`core."+name+"`: "+p.unmodeled) {
			t.Errorf("docs/LINT.md does not list the unmodeled closure of core.%s: %q", name, p.unmodeled)
		}
	}

	mutant := func(edit func(map[string]*primitive)) []string {
		table := map[string]*primitive{}
		for name, p := range primitives {
			row := *p
			table[name] = &row
		}
		edit(table)
		return tableProblems(table, sigs)
	}
	if got := mutant(func(m map[string]*primitive) { delete(m, "Tabulate") }); !slices.Contains(got, "core.Tabulate: takes a worker but has no row") {
		t.Errorf("deleted row not caught: %q", got)
	}
	if got := mutant(func(m map[string]*primitive) { m["ForRange"].bodies = []int{3} }); !slices.Contains(got, "core.ForRange: body position 3 is other, want func") {
		t.Errorf("ForRange body position 4 -> 3 not caught: %q", got)
	}

	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*", "internal", "core"))
	if err != nil || len(fixtures) != 7 {
		t.Fatalf("found %d fixture copies of internal/core (err %v), want 7", len(fixtures), err)
	}
	for _, dir := range fixtures {
		fixtureRoot := filepath.Dir(filepath.Dir(dir))
		for name, stub := range coreSignatures(t, fixtureRoot) {
			real := sigs[name]
			if real == nil {
				t.Errorf("%s: stub declares core.%s, which the library does not", fixtureRoot, name)
				continue
			}
			if got, want := paramKinds(stub), paramKinds(real); !slices.Equal(got, want) {
				t.Errorf("%s: core.%s has parameter kinds %v, the library's has %v", fixtureRoot, name, got, want)
			}
		}
	}
}

// calledPrimitives returns the rows of primitives that some non-test
// file outside internal/core and outside testdata calls, in the module
// under root. benchmark/inputs counts, though the passes skip it.
func calledPrimitives(t *testing.T, root string) map[string]bool {
	t.Helper()
	called := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			if d.Name() == "testdata" || filepath.ToSlash(rel) == corePath || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fi := &fileInfo{ast: f, imports: importMap(f)}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, p := primitiveOf(fi, call); p != nil {
					called[name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return called
}

// TestEveryPrimitiveHasACaller keeps the library surface from growing
// back: a row no kernel, example, command or benchmark calls is an
// entry point every pass models for nobody but core's own tests.
func TestEveryPrimitiveHasACaller(t *testing.T) {
	called := calledPrimitives(t, filepath.Join("..", ".."))
	var idle []string
	for name := range primitives {
		if !called[name] {
			idle = append(idle, name)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("primitive rows with no call site outside internal/core: %s", strings.Join(idle, ", "))
	}
}
