package lint

import (
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions of internal/ that stay
// without a non-test caller, each with the reason.
var uncalledAllowed = map[string]string{
	"internal/suffix.NaiveArray":             "test oracle: the naive suffix sort Array is fuzzed against",
	"internal/suffix.BWTDecodeSequential":    "test oracle: the sequential decode BWTDecode is checked against",
	"internal/suffix.BWTDecode":              "test oracle: the library decode the bench kernel's directBWTDecode is checked against",
	"internal/suffix/suffixtest.Cases":       "test helper package: the texts the suffix and bench tests share",
	"internal/leakcheck.Main":                "test helper package: the goroutine-leak TestMain of the packages whose tests start pools",
	"(*internal/geom.Mesh).CheckDelaunay":    "test oracle: the empty-circumcircle check every mesh test ends with",
	"(*internal/geom.Mesh).RefineSequential": "test oracle: the one-point-at-a-time refinement Refine is checked against",
	"(*internal/arena.Arena).Reset":          "the arena's generation bump, which stales live marks: the lifetimes pass models it and the arena tests pin it",
	"(*internal/graph.CGraph).M":             "Graph.M on the compressed form; deleting it would move the certified sites below it in cgraph.go",
}

// TestEveryInternalFuncHasACaller is TestEveryPrimitiveHasACaller for
// all of internal/: an exported function or method no non-test code in
// the module calls is surface that only its own tests keep alive. A
// method that satisfies an interface the module's code mentions — or
// fmt.Stringer, which the standard library calls — counts as called
// through it; a function's mentions inside its own body do not count.
func TestEveryInternalFuncHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	a, err := newAnalysis(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	addSkipped(t, a, root)
	l := a.typed()
	uses := map[*types.Func][]token.Pos{}
	ifaces := map[*types.Interface]bool{stringer(): true}
	addIfaces := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	var exported []*types.Func
	for _, pkg := range a.sortedPkgs() {
		tp := l.check(pkg.path)
		if tp == nil {
			t.Fatalf("package %q did not load", pkg.path)
		}
		for id, obj := range tp.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
				sig := fn.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					addIfaces(sig.Params().At(i).Type())
				}
			}
		}
		for _, tv := range tp.info.Types {
			addIfaces(tv.Type)
		}
		if !strings.HasPrefix(pkg.path, "internal/") {
			continue
		}
		scope := tp.tpkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					exported = append(exported, obj)
				}
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							exported = append(exported, m)
						}
					}
				}
			}
		}
	}

	called := func(fn *types.Func) bool {
		d := l.declOf(fn)
		for _, p := range uses[fn] {
			if d == nil || p < d.fd.Pos() || p > d.fd.End() {
				return true
			}
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(recv.Type(), it) {
					return true
				}
			}
		}
		return false
	}
	var idle []string
	stale := map[string]bool{}
	for name := range uncalledAllowed {
		stale[name] = true
	}
	for _, fn := range exported {
		name := strings.ReplaceAll(fn.FullName(), a.mod+"/", "")
		if !called(fn) {
			if !stale[name] {
				idle = append(idle, name)
			}
			delete(stale, name)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("exported in internal/ with no non-test caller:\n  %s", strings.Join(idle, "\n  "))
	}
	for name := range stale {
		t.Errorf("allowlisted %s is called or gone: drop its entry", name)
	}
}

// addSkipped adds the one package the analysis skips (skipPath), whose
// calls count all the same.
func addSkipped(t *testing.T, a *analysis, root string) {
	t.Helper()
	p := &pkgInfo{path: skipPath, role: roleOf(skipPath)}
	dir := filepath.Join(root, filepath.FromSlash(skipPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.files = append(p.files, &fileInfo{pkg: p, rel: skipPath + "/" + e.Name(), ast: f, imports: importMap(f)})
	}
	a.pkgs[skipPath] = p
}

// stringer is fmt.Stringer, which fmt calls on a value's behalf.
func stringer() *types.Interface {
	str := types.NewVar(token.NoPos, nil, "", types.Typ[types.String])
	sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(str), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", sig)}, nil).Complete()
}
