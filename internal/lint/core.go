package lint

// The interprocedural core the typed passes share. Two summary engines
// answer questions about a callee: the prover's helper summary
// (summary.go: what a returned slice is proved to be, and whether every
// returned integer is non-negative) and the callee summary
// (raceeffect.go: write effects for races, retention for lifetimes).
// They need the same four things to ask: where the callee is declared
// (declOf), a memo that cuts recursion (summaryTable), which function a
// call expression invokes (resolveCall), and where its parameters sit
// (paramObjs). An engine supplies only its summary key, its value type,
// the transfer function that builds one summary, and the answer a
// recursive query gets.

import (
	"go/ast"
	"go/types"
)

// objOf resolves an identifier to the object it uses or defines.
func (tp *typedPkg) objOf(id *ast.Ident) types.Object {
	if o := tp.info.Uses[id]; o != nil {
		return o
	}
	return tp.info.Defs[id]
}

// funcDecl is one in-module function declaration with its type context.
type funcDecl struct {
	tp *typedPkg
	f  *fileInfo
	fd *ast.FuncDecl
}

// declOf finds the declaration of an in-module function, indexing each
// package's declarations on first use; a method of an instantiated
// generic type resolves to its generic declaration. nil means out of
// module or not declared in source; a body-less declaration (assembly
// stub) is returned with fd.Body == nil for the caller to refuse.
func (l *typeLoader) declOf(fn *types.Func) *funcDecl {
	if fn.Pkg() == nil {
		return nil
	}
	rel, inModule := l.a.modRel(fn.Pkg().Path())
	if !inModule {
		return nil
	}
	if !l.indexed[rel] {
		l.indexed[rel] = true
		if tp := l.check(rel); tp != nil {
			for _, f := range tp.pkg.files {
				for _, decl := range f.ast.Decls {
					if fd, isFn := decl.(*ast.FuncDecl); isFn {
						if tf, isTF := tp.info.Defs[fd.Name].(*types.Func); isTF {
							l.decls[tf] = &funcDecl{tp: tp, f: f, fd: fd}
						}
					}
				}
			}
		}
	}
	return l.decls[fn.Origin()]
}

// eachFunc visits every function body in the module in deterministic
// order. tp is nil for a package that failed to load.
func (l *typeLoader) eachFunc(visit func(tp *typedPkg, f *fileInfo, fd *ast.FuncDecl)) {
	for _, pkg := range l.a.sortedPkgs() {
		tp := l.check(pkg.path)
		for _, fi := range l.a.funcs[pkg.path] {
			visit(tp, fi.file, fi.decl)
		}
	}
}

// summaryTable memoizes one pass's function summaries and cuts
// recursion: a query that re-enters a key still being built gets the
// key's latest answer in its cycle, at first the pass's cycle answer.
// The cycle's entry, its first member built, rebuilds the cycle until
// same finds no member's answer changed, and only then keeps every
// member's. From the least answer and a build that only grows, that is
// the least fixpoint, whichever member is asked first. A nil same takes
// every answer as settled, so the cycle answer is final and must be
// pessimistic (the prover's: a proof may not lean on itself).
type summaryTable[K comparable, V any] struct {
	same  func(a, b V) bool
	done  map[K]V
	guess map[K]V   // a cycle member's latest answer while its cycle iterates
	at    map[K]int // a key being built -> its frame's index on stack
	stack []*cycleFrame[K]
}

// cycleFrame is one build under way: the lowest stack index it has
// re-entered (its own + 1 when none) and, in the current round, whether
// a member's answer changed and the members built.
type cycleFrame[K comparable] struct {
	low     int
	changed bool
	members []K
}

func (t *summaryTable[K, V]) get(key K, cycle V, build func() V) V {
	if v, ok := t.done[key]; ok {
		return v
	}
	if t.done == nil {
		t.done, t.guess, t.at = map[K]V{}, map[K]V{}, map[K]int{}
	}
	if _, ok := t.guess[key]; !ok {
		t.guess[key] = cycle
	}
	if i, ok := t.at[key]; ok {
		top := t.stack[len(t.stack)-1]
		top.low = min(top.low, i)
		return t.guess[key]
	}
	d, fr := len(t.stack), &cycleFrame[K]{}
	t.stack, t.at[key] = append(t.stack, fr), d
	defer func() { t.stack = t.stack[:d]; delete(t.at, key) }()
	for {
		*fr = cycleFrame[K]{low: d + 1}
		v := build()
		fr.changed = fr.changed || t.same != nil && !t.same(t.guess[key], v)
		t.guess[key] = v
		if fr.low < d { // a member: the cycle's entry, further down, rebuilds it
			up := t.stack[d-1]
			up.low, up.changed = min(up.low, fr.low), up.changed || fr.changed
			up.members = append(append(up.members, key), fr.members...)
			return v
		}
		if fr.low > d || !fr.changed {
			for _, m := range append(fr.members, key) {
				if g, ok := t.guess[m]; ok { // a member built twice is kept once
					t.done[m] = g
					delete(t.guess, m)
				}
			}
			return v
		}
	}
}

// recvIdx is the pseudo-position of a method receiver among a
// function's parameters.
const recvIdx = -1

// paramObjs lists the parameter objects of a field list by position;
// unnamed and blank parameters occupy their position with nil.
func (tp *typedPkg) paramObjs(fl *ast.FieldList) []types.Object {
	var out []types.Object
	if fl == nil {
		return out
	}
	for _, field := range fl.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
		}
		for _, name := range field.Names {
			out = append(out, tp.info.Defs[name])
		}
	}
	return out
}

// paramAt returns the i-th parameter object of a field list, or nil.
func (tp *typedPkg) paramAt(fl *ast.FieldList, i int) types.Object {
	if objs := tp.paramObjs(fl); i < len(objs) {
		return objs[i]
	}
	return nil
}

// paramPositions maps each named parameter of a declaration to its
// position, the receiver to recvIdx. Call arguments align with the
// positions.
func (tp *typedPkg) paramPositions(recv, params *ast.FieldList) map[types.Object]int {
	idx := map[types.Object]int{}
	for _, obj := range tp.paramObjs(recv) {
		if obj != nil {
			idx[obj] = recvIdx
		}
	}
	for i, obj := range tp.paramObjs(params) {
		if obj != nil {
			idx[obj] = i
		}
	}
	return idx
}

// argPosition maps the ai-th argument of a call to the callee parameter
// position it lands in: a variadic tail shares the last position.
func argPosition(sig *types.Signature, ai int) int {
	if sig != nil && sig.Params().Len() > 0 && ai >= sig.Params().Len() {
		return sig.Params().Len() - 1
	}
	return ai
}

// callee is what a call expression resolves to.
type callee struct {
	fn *types.Func // the declared function or concrete method; nil when unresolved
	// recv is the receiver a bound method value carries invisibly:
	// f := c.bump; f() writes through c with no receiver in the call
	// syntax.
	recv ast.Expr
	// delegated reports a call whose target is chosen at run time — a
	// func-typed value, an element of a container of funcs, a call's
	// result, an interface method, an immediately-invoked literal. The
	// callee owns its effects; each pass decides what an opaque hand-off
	// costs.
	delegated bool
}

// resolveCall resolves a call expression to the function it invokes:
// plain and package-qualified calls, concrete methods, and explicit
// generic instantiations (the identifier under f[T](...) resolves to
// the generic declaration). binding, when non-nil, supplies the single
// expression a func-typed local was bound to, so a call through a
// method value or a named function bound once resolves to that
// function; without one the call stays delegated. Conversions and
// builtins resolve to nothing and are not delegated.
func resolveCall(tp *typedPkg, call *ast.CallExpr, binding func(types.Object) ast.Expr) callee {
	if tp.isConversion(call) {
		return callee{}
	}
	fun := unparen(call.Fun)
	switch v := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(v.X)
	case *ast.IndexListExpr:
		fun = unparen(v.X)
	}
	var id *ast.Ident
	switch v := fun.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return callee{delegated: true}
	}
	switch obj := tp.objOf(id).(type) {
	case *types.Func:
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			return callee{delegated: true}
		}
		return callee{fn: obj}
	case *types.Var:
		// A func-typed variable, or a container of funcs whose element
		// fs[i] the instantiation strip above took for fs.
		if _, isSig := obj.Type().Underlying().(*types.Signature); isSig && fun == ast.Expr(id) && binding != nil {
			if c := boundFunc(tp, binding(obj)); c.fn != nil {
				return c
			}
		}
		return callee{delegated: true}
	}
	return callee{}
}

// boundFunc resolves the expression a func-typed local was bound to: a
// concrete method value (with its bound receiver) or a named function.
// Anything else — literals, interface method values, call results —
// stays unresolved.
func boundFunc(tp *typedPkg, src ast.Expr) callee {
	switch v := unparen(src).(type) {
	case *ast.Ident:
		if f, ok := tp.objOf(v).(*types.Func); ok {
			return callee{fn: f}
		}
	case *ast.SelectorExpr:
		if selInfo, ok := tp.info.Selections[v]; ok {
			if f, isF := selInfo.Obj().(*types.Func); isF && selInfo.Kind() == types.MethodVal && !types.IsInterface(selInfo.Recv()) {
				return callee{fn: f, recv: v.X}
			}
			return callee{}
		}
		if f, ok := tp.objOf(v.Sel).(*types.Func); ok {
			return callee{fn: f} // package-qualified function value
		}
	}
	return callee{}
}
