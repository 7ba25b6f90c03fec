package lint

// Per-function def-use facts, built once per declaration and queried by
// every typed pass: the provenance prover's use classification, the
// races pass's region facts and alias roots, the callee summary's
// parameter aliases, and the named-closure tables of the region
// enumerators all start from "which statements give this variable a
// value, and where else is it mentioned". One walk records that; each
// pass keeps only the judgement it builds on top (worst-of-all-bindings
// rooting, single-definition index folding, stability, ...).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// binding is one statement that gives a variable a value.
type binding struct {
	define bool // introduces the variable: :=, var, range :=
	// op is DEFINE for a declaration (also the var forms), the
	// assignment token otherwise (ASSIGN, ADD_ASSIGN, ..., INC, DEC),
	// RANGE for a range clause, and ILLEGAL when the statement's values
	// do not pair up with its names (comma-ok forms, x, y = f()).
	op token.Token
	// rhs is the bound expression: the paired value, the ranged
	// expression of a range clause, or the call of x, y := f(). nil for
	// var x T, ++/--, and unpaired forms.
	rhs    ast.Expr
	resIdx int        // position among the statement's left-hand sides
	lhs    []ast.Expr // x, y := f(): every left-hand side (sibling results)
	at     ast.Node   // the AssignStmt, ValueSpec, RangeStmt or IncDecStmt
	pos    token.Pos  // of the bound identifier
}

// value returns the expression bound one-to-one to the variable, or nil
// when there is none to fold through (zero value, tuple result, range
// clause, ++/--).
func (b *binding) value() ast.Expr {
	if b.lhs != nil || b.op == token.RANGE {
		return nil
	}
	return b.rhs
}

// zeroValue reports the declaration var x T.
func (b *binding) zeroValue() bool {
	return b.define && b.op == token.DEFINE && b.rhs == nil
}

// loopShape is the header of a counted loop `for i := lo; i < hi; ...`.
// hi is nil for the `i <= X` form (only the start is known exactly);
// unit reports an i++ post statement.
type loopShape struct {
	lo, hi ast.Expr
	unit   bool
}

// countedLoop recognizes `for i := lo; i < hi; post` (or `<=`) and
// returns the loop variable with its header; the shape is nil when the
// condition does not test the variable that way.
func (tp *typedPkg) countedLoop(fs *ast.ForStmt) (types.Object, *loopShape) {
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil, nil
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok || tp.info.Defs[id] == nil {
		return nil, nil
	}
	obj := tp.info.Defs[id]
	isVar := func(e ast.Expr) bool {
		v, isID := unparen(e).(*ast.Ident)
		return isID && tp.objOf(v) == obj
	}
	cond, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok || !isVar(cond.X) || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return obj, nil
	}
	shape := &loopShape{lo: init.Rhs[0]}
	if cond.Op == token.LSS {
		shape.hi = cond.Y
	}
	if post, isInc := fs.Post.(*ast.IncDecStmt); isInc && post.Tok == token.INC && isVar(post.X) {
		shape.unit = true
	}
	return obj, shape
}

// occurrence is one mention of a variable.
type occurrence struct {
	id   *ast.Ident
	bind *binding // non-nil when the mention binds the variable
}

// varFacts is everything the walk learned about one variable.
type varFacts struct {
	occs      []*occurrence // every mention, in source order
	binds     []*binding    // the binding mentions, in source order
	param     bool          // receiver, parameter or named result of the declaration
	litParam  bool          // parameter of a function literal inside it
	addrTaken bool          // &x
	loopVar   bool          // declared by a for-init or range clause
	loop      *loopShape    // for-init variable of a recognized counted loop
}

// def returns the binding that introduces the variable in this function
// (nil for parameters and captured or package-level variables).
func (vf *varFacts) def() *binding {
	for _, b := range vf.binds {
		if b.define {
			return b
		}
	}
	return nil
}

// assigns counts the bindings other than the definition.
func (vf *varFacts) assigns() int {
	n := 0
	for _, b := range vf.binds {
		if !b.define {
			n++
		}
	}
	return n
}

// funcFacts is the def-use fact set of one function declaration.
type funcFacts struct {
	tp     *typedPkg
	fd     *ast.FuncDecl
	parent map[ast.Node]ast.Node
	vars   map[types.Object]*varFacts
}

var noFacts = &varFacts{}

// of returns obj's facts; a variable the function never mentions has
// empty facts.
func (ff *funcFacts) of(obj types.Object) *varFacts {
	if vf := ff.vars[obj]; vf != nil {
		return vf
	}
	return noFacts
}

// pathTo returns n's ancestors inside the declaration, outermost first.
func (ff *funcFacts) pathTo(n ast.Node) []ast.Node {
	var path []ast.Node
	for p := ff.parent[n]; p != nil; p = ff.parent[p] {
		path = append(path, p)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// mentionedIn reports whether obj is mentioned anywhere inside n.
func (ff *funcFacts) mentionedIn(obj types.Object, n ast.Node) bool {
	for _, oc := range ff.of(obj).occs {
		if oc.id.Pos() >= n.Pos() && oc.id.End() <= n.End() {
			return true
		}
	}
	return false
}

// soleValue returns the expression a local is bound to when it is bound
// exactly once in the whole function, nil otherwise. Parameters never
// qualify: their first binding belongs to a caller the walk cannot see.
func (ff *funcFacts) soleValue(obj types.Object) ast.Expr {
	vf := ff.of(obj)
	var only *binding
	for _, b := range vf.binds {
		if b.zeroValue() {
			continue // var f T: the zero value is never the one in use
		}
		if only != nil {
			return nil
		}
		only = b
	}
	if only == nil || vf.param || vf.litParam {
		return nil
	}
	return only.value()
}

// litOf returns the function literal a local closure name is defined
// as: name := func(...) {...}.
func (ff *funcFacts) litOf(obj types.Object) *ast.FuncLit {
	if b := ff.of(obj).def(); b != nil {
		lit, _ := unparen(b.value()).(*ast.FuncLit)
		return lit
	}
	return nil
}

// factsOf returns (memoized) the def-use facts of one declaration.
func (l *typeLoader) factsOf(tp *typedPkg, fd *ast.FuncDecl) *funcFacts {
	if ff := l.facts[fd]; ff != nil {
		return ff
	}
	ff := &funcFacts{tp: tp, fd: fd, parent: map[ast.Node]ast.Node{}, vars: map[types.Object]*varFacts{}}
	l.facts[fd] = ff
	fact := func(obj types.Object) *varFacts {
		vf := ff.vars[obj]
		if vf == nil {
			vf = &varFacts{}
			ff.vars[obj] = vf
		}
		return vf
	}
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params, fd.Type.Results} {
		for _, obj := range tp.paramObjs(fl) {
			if obj != nil {
				fact(obj).param = true
			}
		}
	}
	walkWithPath(fd, func(n ast.Node, path []ast.Node) {
		if len(path) == 0 {
			return
		}
		parent := path[len(path)-1]
		ff.parent[n] = parent
		switch v := n.(type) {
		case *ast.FuncLit:
			for _, obj := range tp.paramObjs(v.Type.Params) {
				if obj != nil {
					fact(obj).litParam = true
				}
			}
		case *ast.ForStmt:
			if obj, shape := tp.countedLoop(v); obj != nil {
				fact(obj).loop = shape
			}
		case *ast.Ident:
			obj, isVar := tp.objOf(v).(*types.Var)
			if !isVar {
				return
			}
			vf := fact(obj)
			oc := &occurrence{id: v, bind: bindingOf(tp, v, parent)}
			vf.occs = append(vf.occs, oc)
			if oc.bind != nil {
				vf.binds = append(vf.binds, oc.bind)
				if fs, inFor := ff.parent[parent].(*ast.ForStmt); inFor && fs.Init == parent && oc.bind.define {
					vf.loopVar = true
				}
				if _, isRange := parent.(*ast.RangeStmt); isRange && oc.bind.define {
					vf.loopVar = true
				}
			} else if u, isAddr := parent.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
				vf.addrTaken = true
			}
		}
	})
	return ff
}

// bindingOf classifies the mention id (whose syntactic parent is given)
// as a binding of its variable, or returns nil for any other use.
func bindingOf(tp *typedPkg, id *ast.Ident, parent ast.Node) *binding {
	switch par := parent.(type) {
	case *ast.AssignStmt:
		for i, lhs := range par.Lhs {
			if lhs != id {
				continue
			}
			b := &binding{op: par.Tok, resIdx: i, at: par, pos: id.Pos()}
			if par.Tok == token.DEFINE {
				if b.define = tp.info.Defs[id] != nil; !b.define {
					b.op = token.ASSIGN // a := that re-uses an existing variable assigns it
				}
			}
			call, isCall := unparen(par.Rhs[0]).(*ast.CallExpr)
			switch {
			case len(par.Lhs) == len(par.Rhs):
				b.rhs = par.Rhs[i]
			case b.define && len(par.Rhs) == 1 && isCall:
				// x, y := f(...): each variable binds one result of a
				// single call — still a single definition.
				b.rhs, b.lhs = call, par.Lhs
			default:
				b.op = token.ILLEGAL
			}
			return b
		}
	case *ast.ValueSpec:
		for i, nm := range par.Names {
			if nm != id {
				continue
			}
			b := &binding{define: true, op: token.DEFINE, resIdx: i, at: par, pos: id.Pos()}
			switch {
			case len(par.Values) == len(par.Names):
				b.rhs = par.Values[i]
			case len(par.Values) > 0:
				b.op = token.ILLEGAL // var x, y = f()
			}
			return b
		}
	case *ast.RangeStmt:
		if par.Key == id || par.Value == id {
			return &binding{define: par.Tok == token.DEFINE, op: token.RANGE, rhs: par.X, at: par, pos: id.Pos()}
		}
	case *ast.IncDecStmt:
		return &binding{op: par.Tok, at: par, pos: id.Pos()}
	}
	return nil
}
