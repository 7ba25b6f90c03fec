package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// coreFixture loads the callgraph fixture's bench package, the home of
// the shared-core fixtures (testdata/src/callgraph/internal/bench/
// resolve.go).
func coreFixture(t *testing.T) (*typeLoader, *typedPkg) {
	t.Helper()
	a, err := newAnalysis(Config{Root: filepath.Join("testdata", "src", "callgraph")})
	if err != nil {
		t.Fatal(err)
	}
	l := a.typed()
	tp := l.check("internal/bench")
	if tp == nil {
		t.Fatal("fixture package internal/bench did not load")
	}
	return l, tp
}

func fixtureFunc(t *testing.T, tp *typedPkg, name string) *types.Func {
	t.Helper()
	fn, ok := tp.tpkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture has no function %s", name)
	}
	return fn
}

// TestResolveCall pins the one call resolver on every call shape the
// passes meet: what resolves to a declaration, what is delegated, and
// what a single method-value binding recovers.
func TestResolveCall(t *testing.T) {
	l, tp := coreFixture(t)
	d := l.declOf(fixtureFunc(t, tp, "resolveShapes"))
	ff := l.factsOf(d.tp, d.fd)

	want := []struct {
		call      string // source text of the callee expression
		fn        string // resolved function, "" when unresolved
		delegated bool
		recv      string // bound receiver, with the binding table supplied
		bare      bool   // resolve without the binding table
	}{
		{call: "plain", fn: "plain"},
		{call: "strings.ToUpper", fn: "ToUpper"},
		{call: "core.Run", fn: "Run"},
		{call: "c.bump", fn: "bump"},
		{call: "identity[int]", fn: "identity"},
		{call: "s.shape", delegated: true},
		{call: "f", fn: "bump", recv: "c"},
		{call: "f", delegated: true, bare: true},
		{call: "func literal", delegated: true},
		{call: "h.get", fn: "get"},
		{call: "asmStub", fn: "asmStub"},
		{call: "fs[0]", delegated: true},
		{call: "int64"},
	}
	calls := map[string]*ast.CallExpr{}
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			key := types.ExprString(call.Fun)
			if _, isLit := call.Fun.(*ast.FuncLit); isLit {
				key = "func literal"
			}
			calls[key] = call
		}
		return true
	})
	for _, w := range want {
		call := calls[w.call]
		if call == nil {
			t.Errorf("fixture has no call to %s", w.call)
			continue
		}
		binding := ff.soleValue
		if w.bare {
			binding = nil
		}
		got := resolveCall(tp, call, binding)
		name, recv := "", ""
		if got.fn != nil {
			name = got.fn.Name()
		}
		if got.recv != nil {
			recv = types.ExprString(got.recv)
		}
		if name != w.fn || got.delegated != w.delegated || recv != w.recv {
			t.Errorf("resolveCall(%s, bare=%v) = fn %q delegated %v recv %q; want fn %q delegated %v recv %q",
				w.call, w.bare, name, got.delegated, recv, w.fn, w.delegated, w.recv)
		}
	}
}

// TestDeclOf pins the one function index: methods and generics resolve
// to their declarations (an instantiated method through its origin),
// out-of-module functions to nil, and a body-less declaration comes
// back with a nil body for the caller to refuse.
func TestDeclOf(t *testing.T) {
	l, tp := coreFixture(t)
	d := l.declOf(fixtureFunc(t, tp, "resolveShapes"))
	if d == nil || d.fd.Name.Name != "resolveShapes" || d.f.rel != "internal/bench/resolve.go" {
		t.Fatalf("declOf(resolveShapes) = %+v", d)
	}

	resolved := map[string]*types.Func{}
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := resolveCall(tp, call, nil).fn; fn != nil {
				resolved[fn.Name()] = fn
			}
		}
		return true
	})
	for _, c := range []struct {
		fn      string
		found   bool
		hasBody bool
	}{
		{"plain", true, true},
		{"bump", true, true},     // method
		{"identity", true, true}, // generic function
		{"get", true, true},      // method of an instantiated generic type
		{"Run", true, true},      // another in-module package
		{"ToUpper", false, false},
		{"asmStub", true, false},
	} {
		fn := resolved[c.fn]
		if fn == nil {
			t.Errorf("fixture call to %s did not resolve", c.fn)
			continue
		}
		got := l.declOf(fn)
		switch {
		case (got != nil) != c.found:
			t.Errorf("declOf(%s) found = %v, want %v", c.fn, got != nil, c.found)
		case got != nil && got.fd.Name.Name != c.fn:
			t.Errorf("declOf(%s) returned the declaration of %s", c.fn, got.fd.Name.Name)
		case got != nil && (got.fd.Body != nil) != c.hasBody:
			t.Errorf("declOf(%s) body present = %v, want %v", c.fn, got.fd.Body != nil, c.hasBody)
		}
	}
}

// TestSummaryTable pins the memo-plus-cycle discipline itself. With no
// same function a query that re-enters a key being built gets the cycle
// answer, which is final: every key is built once and a second query
// does not recompute. With one, each cycle iterates to its fixpoint: a
// key's value is the largest base it reaches, whichever key of a cycle
// is asked first, and the fixpoint is kept for every member.
func TestSummaryTable(t *testing.T) {
	var tbl summaryTable[string, int]
	builds := 0
	next := map[string]string{"a": "b", "b": "a"}
	var get func(k string) int
	get = func(k string) int {
		return tbl.get(k, -1, func() int {
			builds++
			if next[k] == "" {
				return 0
			}
			return get(next[k]) + 1
		})
	}
	if got := get("a"); got != 1 {
		t.Errorf("get(a) = %d, want 1 (b saw the cycle answer -1 and built 0)", got)
	}
	if got := get("b"); got != 0 {
		t.Errorf("get(b) = %d, want the memoized 0", got)
	}
	if get("a"); builds != 2 {
		t.Errorf("%d builds for 2 keys: a repeated query recomputed", builds)
	}

	// x -> y -> z -> x and y -> y, with w reaching the cycle and v a
	// chain outside it; z's base is the largest.
	base := map[string]int{"x": 1, "y": 2, "z": 7, "w": 0, "v": 3, "u": 4}
	edges := map[string][]string{"x": {"y"}, "y": {"y", "z"}, "z": {"x"}, "w": {"x"}, "v": {"u"}}
	want := map[string]int{"x": 7, "y": 7, "z": 7, "w": 7, "v": 4, "u": 4}
	for _, first := range []string{"x", "y", "z", "w", "v"} {
		fix := summaryTable[string, int]{same: func(a, b int) bool { return a == b }}
		var reach func(k string) int
		reach = func(k string) int {
			return fix.get(k, 0, func() int {
				v := base[k]
				for _, n := range edges[k] {
					v = max(v, reach(n))
				}
				return v
			})
		}
		reach(first)
		for k, w := range want {
			if got := reach(k); got != w {
				t.Errorf("asked %s first: %s = %d, want %d", first, k, got, w)
			}
		}
		if len(fix.done) != len(want) || len(fix.guess) != 0 || len(fix.at)+len(fix.stack) != 0 {
			t.Errorf("asked %s first: %d keys kept, %d guesses, %d frames left; want %d, 0, 0",
				first, len(fix.done), len(fix.guess), len(fix.stack), len(want))
		}
	}
}

// TestCycleAnswers runs each pass's summary over a recursive fixture
// and checks its documented cycle answer: the provenance and
// non-negativity summaries refuse at the back edge (a proof may not
// lean on itself), the callee summary answers optimistically and still
// reports the write and the retaining store that sit inside the cycle.
// Repeated queries return the memoized summary.
func TestCycleAnswers(t *testing.T) {
	l, tp := coreFixture(t)
	fn := func(name string) *types.Func { return fixtureFunc(t, tp, name) }

	sum := l.summaryFor(fn("recOffsets"), 0, core.SngInd)
	if sum.ok || !strings.Contains(sum.reason, "recursive; summaries do not cross back edges") {
		t.Errorf("provenance summary of recOffsets = ok %v, reason %q; want a back-edge refusal", sum.ok, sum.reason)
	}
	if again := l.summaryFor(fn("recOffsets"), 0, core.SngInd); again != sum {
		t.Error("provenance summary recomputed on the second query")
	}

	if l.nonNegative(fn("recSize")) {
		t.Error("non-negativity summary of recSize = proven; the back edge must answer unproven")
	}
	if !l.nonNegative(fn("flatSize")) {
		t.Error("non-negativity summary of flatSize = unproven; the non-recursive control must prove")
	}

	eff := l.effectOf(fn("ping"))
	if !eff.writesPlain(0) || eff.writesPlain(1) || eff.shared != "" {
		t.Errorf("write effect of ping = %+v; want a plain write through parameter 0 only (pong's, inside the cycle)", eff)
	}
	if l.effectOf(fn("ping")) != eff {
		t.Error("write effect recomputed on the second query")
	}

	keep := l.effectOf(fn("keepA"))
	if keep.kept(0) == "" || keep.kept(1) != "" {
		t.Errorf("callee summary of keepA keeps %v; want parameter 0 only (keepB's store, inside the cycle)", keep.keeps)
	}
	if l.effectOf(fn("keepA")) != keep {
		t.Error("callee summary of keepA recomputed on the second query")
	}
}

// TestEffectPackageState: a callee that assigns a package-level
// variable itself, with no parameter in the path, writes shared state —
// keepB's `kept = p`.
func TestEffectPackageState(t *testing.T) {
	l, tp := coreFixture(t)
	if eff := l.effectOf(fixtureFunc(t, tp, "keepB")); !strings.Contains(eff.shared, "writes kept") {
		t.Errorf("write effect of keepB: shared %q, want the package-level write to kept", eff.shared)
	}
}

// TestEffectReturns: the summary names a result that carries memory
// the callee did not get from its parameters — a package-level slice,
// through an explicit or a bare return — and ignores a function
// literal's own returns.
func TestEffectReturns(t *testing.T) {
	l, tp := coreFixture(t)
	for name, want := range map[string]string{
		"retParam": "", "retKept": "returns kept", "retNamed": "returns out", "retInLit": "",
	} {
		if got := l.effectOf(fixtureFunc(t, tp, name)).returns; got != want {
			t.Errorf("effectOf(%s).returns = %q, want %q", name, got, want)
		}
	}
}

// TestExprEqVariants pins what separates the two forms of the one
// equality, which no committed artifact does: the races pass's exprEq
// compares expressions inside one region iteration and equates any two
// mentions of one object; the prover's cross-point form compares across
// program points and must refuse a variable that is reassigned in
// between.
func TestExprEqVariants(t *testing.T) {
	l, tp := coreFixture(t)
	d := l.declOf(fixtureFunc(t, tp, "restated"))
	p := newProver(l.a, d.tp, d.f, d.fd, l)

	var sums []*ast.BinaryExpr // n + m, before and after n++
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			sums = append(sums, be)
		}
		return true
	})
	if len(sums) != 2 {
		t.Fatalf("fixture restated has %d binary expressions, want 2", len(sums))
	}
	if !exprEq(tp, sums[0], sums[1]) {
		t.Error("exprEq(n+m, n+m) = false; same-point equality compares by object")
	}
	if p.cmp.eq(sums[0], sums[1]) {
		t.Error("cross-point exprCmp.eq(n+m, n+m) = true across n++; n is not stable")
	}
	if !p.cmp.eq(sums[0].Y, sums[1].Y) {
		t.Error("cross-point exprCmp.eq(m, m) = false; an unassigned parameter is stable")
	}
}
