package lint

// The expression toolkit under the typed passes: syntactic helpers that
// every engine needs in exactly one form — paren stripping, constant
// folding, affine decomposition, access paths and whether they leave a
// variable's storage, canonical keys, structural equality (at one
// program point or across two), builtin recognition, named-type tests,
// and mutex tracking along a source-ordered walk.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
)

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// walkWithPath visits every node under root with its ancestor chain
// (outermost first, parent last; root itself is visited with an empty
// path).
func walkWithPath(root ast.Node, visit func(n ast.Node, path []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// eachWrite calls fn for every assignment target under root: the
// left-hand sides of non-defining assignments and the operands of
// ++/--.
func eachWrite(root ast.Node, fn func(lhs ast.Expr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE {
				for _, lhs := range v.Lhs {
					fn(lhs)
				}
			}
		case *ast.IncDecStmt:
			fn(v.X)
		}
		return true
	})
}

// within reports whether a position falls inside a block.
func within(p token.Pos, b *ast.BlockStmt) bool {
	return p >= b.Pos() && p <= b.End()
}

// isZeroExpr reports whether e is the integer literal 0.
func isZeroExpr(e ast.Expr) bool {
	bl, ok := unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(tp *typedPkg, e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	if obj := tp.info.Uses[id]; obj != nil {
		return obj == types.Universe.Lookup("nil")
	}
	return id.Name == "nil"
}

// ---------------------------------------------------------------------
// Types and constants

// typeOf returns an expression's type, nil when the checker recorded
// none.
func (tp *typedPkg) typeOf(e ast.Expr) types.Type {
	if tv, ok := tp.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isConversion reports a one-argument call whose callee is a type.
func (tp *typedPkg) isConversion(call *ast.CallExpr) bool {
	tv, ok := tp.info.Types[call.Fun]
	return ok && tv.IsType() && len(call.Args) == 1
}

// constVal returns an expression's compile-time constant value, nil
// when it has none.
func (tp *typedPkg) constVal(e ast.Expr) constant.Value {
	return tp.info.Types[e].Value
}

// constInt evaluates an integer constant expression.
func (tp *typedPkg) constInt(e ast.Expr) (int64, bool) {
	v := tp.constVal(e)
	if v == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(v))
}

// namedType returns the declared name of t, looking through one
// pointer; nil for unnamed types.
func namedType(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// isNamed reports whether t is (a pointer to) a named type declared in
// the package whose import path ends in pkgPath — one of names, or any
// type of that package when no names are given.
func isNamed(t types.Type, pkgPath string, names ...string) bool {
	tn := namedType(t)
	if tn == nil || tn.Pkg() == nil || !isPath(tn.Pkg().Path(), pkgPath) {
		return false
	}
	return len(names) == 0 || slices.Contains(names, tn.Name())
}

// isWorkerNamed reports whether t is (a pointer to) the scheduler's
// Worker.
func isWorkerNamed(t types.Type) bool { return isNamed(t, schedPath, "Worker") }

// boxTypeName names the struct type behind a (pointer to a) named
// type, dropping type arguments: *reduceBody[R] -> "reduceBody".
func boxTypeName(t types.Type) string {
	if tn := namedType(t); tn != nil {
		return tn.Name()
	}
	return ""
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsUntyped) != 0
}

// isUnsignedInt reports a type whose every value is non-negative by
// construction.
func isUnsignedInt(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

// ---------------------------------------------------------------------
// Affine forms

// affTerm is one symbolic term of an affine sum.
type affTerm struct {
	obj   types.Object // the variable; nil for selector and len atoms
	name  string
	canon string // canonical key of a selector atom (fieldWr lookups)
	coef  int64
}

// affine is sum(coef_i * atom_i) + k, terms in first-mention order. A
// term whose coefficients cancelled stays in the list with coef 0.
type affine struct {
	terms []*affTerm
	k     int64
}

func (t *affTerm) sameAtom(u *affTerm) bool {
	switch {
	case t.obj != nil || u.obj != nil:
		return t.obj == u.obj
	case t.canon != "" || u.canon != "":
		return t.canon == u.canon
	}
	return t.name == u.name
}

// find returns the term over the same atom as t, or nil.
func (a *affine) find(t *affTerm) *affTerm {
	for _, have := range a.terms {
		if have.sameAtom(t) {
			return have
		}
	}
	return nil
}

func (a *affine) add(t *affTerm, scale int64) {
	if have := a.find(t); have != nil {
		have.coef += scale
		return
	}
	t.coef = scale
	a.terms = append(a.terms, t)
}

// affineEnv adapts the affine parser to one analysis. norm
// canonicalizes each subexpression before it is inspected — it strips
// the parentheses and the conversions that analysis treats as
// transparent. fold, when non-nil, returns the definition to substitute
// for a variable, or nil to keep the variable as an atom.
type affineEnv struct {
	tp   *typedPkg
	norm func(ast.Expr) ast.Expr
	fold func(types.Object) ast.Expr
}

// parse decomposes e into sum(coef_i * atom_i) + k. Constant
// subexpressions fold through go/types' constant evaluation; variables
// are atoms unless env.fold substitutes a definition; selector chains
// and len(x) over a nameable operand are atoms of their own. Products
// need one constant factor.
func (env affineEnv) parse(e ast.Expr) (*affine, bool) {
	a := &affine{}
	return a, env.into(a, e, 1, 0)
}

func (env affineEnv) into(a *affine, e ast.Expr, scale int64, depth int) bool {
	if depth > 12 {
		return false
	}
	e = env.norm(e)
	if env.tp.constVal(e) != nil {
		v, exact := env.tp.constInt(e)
		a.k += scale * v
		return exact
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := env.tp.objOf(v)
		if obj == nil {
			return false
		}
		if env.fold != nil {
			if def := env.fold(obj); def != nil {
				return env.into(a, def, scale, depth+1)
			}
		}
		a.add(&affTerm{obj: obj, name: v.Name}, scale)
		return true
	case *ast.SelectorExpr:
		canon := canonString(env.tp, v)
		if canon == "" {
			return false
		}
		a.add(&affTerm{name: types.ExprString(v), canon: canon}, scale)
		return true
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD:
			return env.into(a, v.X, scale, depth+1) && env.into(a, v.Y, scale, depth+1)
		case token.SUB:
			return env.into(a, v.X, scale, depth+1) && env.into(a, v.Y, -scale, depth+1)
		case token.MUL:
			if c, ok := env.tp.constInt(env.norm(v.X)); ok {
				return env.into(a, v.Y, scale*c, depth+1)
			}
			if c, ok := env.tp.constInt(env.norm(v.Y)); ok {
				return env.into(a, v.X, scale*c, depth+1)
			}
		}
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			return env.into(a, v.X, -scale, depth+1)
		}
	case *ast.CallExpr:
		// len(x) over a stable expression is an invariant atom.
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "len" && len(v.Args) == 1 {
			if canonString(env.tp, v.Args[0]) != "" {
				a.add(&affTerm{name: types.ExprString(v)}, scale)
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Access paths

// targetStep is one access-path step, innermost (closest to the base
// identifier) first.
type targetStep struct {
	index ast.Expr // non-nil for x[i]
	of    ast.Expr // the operand x of x[i] and x.f
	field string   // non-empty for x.f
	star  bool     // *x
}

// peelTarget decomposes a write target into its base identifier and
// access path.
func peelTarget(e ast.Expr) (*ast.Ident, []targetStep, bool) {
	var steps []targetStep
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			slices.Reverse(steps)
			return v, steps, true
		case *ast.IndexExpr:
			steps = append(steps, targetStep{index: v.Index, of: v.X})
			e = v.X
		case *ast.SelectorExpr:
			steps = append(steps, targetStep{field: v.Sel.Name, of: v.X})
			e = v.X
		case *ast.StarExpr:
			steps = append(steps, targetStep{star: true})
			e = v.X
		default:
			return nil, nil, false
		}
	}
}

// innerOperand returns the operand an access expression is applied to
// — x in x.f, x[i], x[i:j], *x, &x, x.(T) and (x) — or nil when e is
// not one.
func innerOperand(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.SelectorExpr:
		return v.X
	case *ast.IndexExpr:
		return v.X
	case *ast.SliceExpr:
		return v.X
	case *ast.StarExpr:
		return v.X
	case *ast.TypeAssertExpr:
		return v.X
	case *ast.ParenExpr:
		return v.X
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return v.X
		}
	}
	return nil
}

// memoryOf classifies how a value expression comes by its memory:
// fresh means it allocates (make, new); a non-nil operand means it
// shares that operand's memory (a reslice, append(x, ...), a
// conversion T(x)). A composite literal allocates too, but the
// references it wraps keep their roots: rooting judges it element by
// element.
func (tp *typedPkg) memoryOf(e ast.Expr) (operand ast.Expr, fresh bool) {
	switch v := e.(type) {
	case *ast.SliceExpr:
		return v.X, false
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok {
			switch {
			case id.Name == "make" || id.Name == "new":
				return nil, true
			case id.Name == "append" && len(v.Args) > 0:
				return v.Args[0], false
			}
		}
		if tp.isConversion(v) {
			return v.Args[0], false
		}
	}
	return nil, false
}

// crossesStorage reports whether an access path starting at a variable
// of type t leaves the variable's own storage: a dereference, an index
// into anything but an array, a field reached through a pointer, or a
// step the type walk cannot follow.
func crossesStorage(t types.Type, steps []targetStep) bool {
	for _, st := range steps {
		switch {
		case st.star:
			return true
		case st.index != nil:
			if _, isArr := t.Underlying().(*types.Array); !isArr {
				return true
			}
		case st.field != "":
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return true
			}
		}
		t = stepType(t, st)
		if t == nil {
			return true
		}
	}
	return false
}

// stepType advances a type along one in-variable access step.
func stepType(t types.Type, st targetStep) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Array:
		if st.index != nil {
			return u.Elem()
		}
	case *types.Struct:
		if st.field != "" {
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Name() == st.field {
					return u.Field(i).Type()
				}
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Canonical keys and structural equality

// canonString renders an expression as a canonical comparison key
// (identifiers by object identity where resolvable); "" for shapes
// with no stable name.
func canonString(tp *typedPkg, e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj := tp.objOf(v); obj != nil {
			return fmt.Sprintf("%s#%d", v.Name, obj.Pos())
		}
		return v.Name
	case *ast.SelectorExpr:
		x := canonString(tp, v.X)
		if x == "" {
			return ""
		}
		return x + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + canonString(tp, v.X)
	}
	return ""
}

// lockLabel strips canonString's #pos disambiguators for display: the
// certificate file must not churn when unrelated code moves a lock's
// declaration offset.
func lockLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '#' {
			for i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
				i++
			}
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// exprEq is structural expression equality at one program point (one
// region iteration), identifiers compared by resolved object: whether
// the operands hold still between two points is the caller's separate
// invariance argument.
func exprEq(tp *typedPkg, a, b ast.Expr) bool { return exprCmp{tp: tp}.eq(a, b) }

// exprCmp is the one structural expression equality. Constants compare
// by integer value (no other constant equals anything), identifiers by
// resolved object, everything else shape by shape. The same-point form
// (exprEq) leaves cross nil. The cross-point form, which compares
// expressions evaluated at two program points, sets it to the
// provenance prover of the function the points sit in: it equates a
// variable only when the prover finds it stable (one value for the
// whole function), refuses any load through memory or call that can
// change in between (a selector, an index, a receive, a call other than
// a builtin or a conversion), and normalizes each operand first (norm).
type exprCmp struct {
	tp    *typedPkg
	cross *prover
}

// norm strips parentheses and, in the cross-point form, integer to
// integer conversions, and replaces len(x) of a variable allocated with
// length L by L. (Stripping conversions assumes values fit the narrower
// type — a documented caveat; offsets that overflow int32 fail the
// run-time check too.)
func (c exprCmp) norm(e ast.Expr) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		e = unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || c.cross == nil || len(call.Args) != 1 {
			return e
		}
		switch {
		case c.tp.isConversion(call) && isIntType(c.tp.typeOf(call.Fun)) && isIntType(c.tp.typeOf(call.Args[0])):
			e = call.Args[0]
		case builtinOf(c.tp, call) == "len":
			id, isID := unparen(call.Args[0]).(*ast.Ident)
			if !isID || c.cross.makeLen(c.tp.objOf(id)) == nil {
				return e
			}
			e = c.cross.makeLen(c.tp.objOf(id))
		default:
			return e
		}
	}
	return e
}

func (c exprCmp) eq(a, b ast.Expr) bool {
	a, b = c.norm(a), c.norm(b)
	if ca, cb := c.tp.constVal(a), c.tp.constVal(b); ca != nil || cb != nil {
		return ca != nil && cb != nil && constant.Compare(constant.ToInt(ca), token.EQL, constant.ToInt(cb))
	}
	cross := c.cross != nil
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao := c.tp.objOf(av)
		if _, isVar := ao.(*types.Var); isVar && cross && !c.cross.stableObj(ao) {
			return false
		}
		return ao != nil && ao == c.tp.objOf(bv)
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		return ok && !cross && av.Sel.Name == bv.Sel.Name && c.eq(av.X, bv.X)
	case *ast.BinaryExpr:
		bv, ok := b.(*ast.BinaryExpr)
		return ok && av.Op == bv.Op && c.eq(av.X, bv.X) && c.eq(av.Y, bv.Y)
	case *ast.CallExpr:
		bv, ok := b.(*ast.CallExpr)
		if !ok || len(av.Args) != len(bv.Args) || !c.eq(av.Fun, bv.Fun) ||
			cross && builtinOf(c.tp, av) == "" && !c.tp.isConversion(av) {
			return false
		}
		for i := range av.Args {
			if !c.eq(av.Args[i], bv.Args[i]) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		bv, ok := b.(*ast.IndexExpr)
		return ok && !cross && c.eq(av.X, bv.X) && c.eq(av.Index, bv.Index)
	case *ast.UnaryExpr:
		bv, ok := b.(*ast.UnaryExpr)
		return ok && av.Op == bv.Op && !(cross && av.Op == token.ARROW) && c.eq(av.X, bv.X)
	}
	return false
}

// builtinOf names the builtin a call invokes (len, copy, append, ...,
// and unsafe's), "" for any other call.
func builtinOf(tp *typedPkg, call *ast.CallExpr) string {
	id, _ := unparen(call.Fun).(*ast.Ident)
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if b, ok := tp.info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// ---------------------------------------------------------------------
// Mutex tracking

// lockTracker follows sync.Mutex / RWMutex transitions along a
// source-ordered walk. Statement order approximates dominance, which is
// enough for the straight-line Lock/Unlock discipline this module uses.
type lockTracker struct {
	held []string // canonical strings of the write locks held, innermost last
}

// op recognizes a mutex transition and updates the held set, reporting
// whether call was one. A deferred Unlock keeps its lock held for the
// rest of the walk. An Unlock whose receiver matches no held lock (an
// alias) releases the innermost one: under-approximating what is held
// is the refusal-biased direction.
func (lt *lockTracker) op(tp *typedPkg, call *ast.CallExpr, deferred bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isNamed(tp.typeOf(sel.X), syncPath, "Mutex", "RWMutex") {
		return false
	}
	key := canonString(tp, sel.X)
	switch sel.Sel.Name {
	case "Lock":
		if !deferred {
			lt.held = append(lt.held, key)
		}
	case "Unlock":
		if n := len(lt.held); n > 0 && !deferred {
			i := n - 1
			for j := i; j >= 0; j-- {
				if lt.held[j] == key {
					i = j
					break
				}
			}
			lt.held = append(lt.held[:i:i], lt.held[i+1:]...)
		}
	case "RLock", "RUnlock", "TryLock":
	default:
		return false
	}
	return true
}

func (lt *lockTracker) locked() bool { return len(lt.held) > 0 }

// guard names the innermost held lock for a lock-guarded verdict.
func (lt *lockTracker) guard() string {
	return "guarded by " + lockLabel(lt.held[len(lt.held)-1])
}
