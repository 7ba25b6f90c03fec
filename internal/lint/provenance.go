package lint

// Intraprocedural offset-provenance analysis: the proof engine behind
// the certification pass (certify.go). For one function declaration it
// tracks the local variable passed as the offsets argument of an
// IndForEach/IndChunks/Scatter/*Unchecked call and tries to prove the
// property the primitive's run-time check enforces dynamically:
// uniqueness (+bounds) for SngInd sites, monotonicity (+bounds) for
// RngInd sites.
//
// Four proof forms are recognized:
//
//	P1 packindex    offsets := core.PackIndex(w, n, keep), never written
//	                afterwards. PackIndex output is strictly increasing
//	                and unique in [0, n).
//	P2 affine-fill  offsets[i] = a*i + c (constant a != 0) written by a
//	                complete core.ForRange / sequential loop over
//	                [0, len(offsets)), no other writes. Injective.
//	P3 permutation  identity fill as in P2, subsequently mutated ONLY by
//	                permutation-preserving operations (core.Sort,
//	                core.SortBy, radix.SortPairs, and radix.SortPairsAt
//	                as its vals argument): the slice stays a
//	                permutation of [0, len(offsets)).
//	P4 scan         offsets := make(...) (zero), every element write
//	                before the scan stores a provably non-negative
//	                value, then exactly one core.ScanInclusive /
//	                core.ScanExclusive over offsets (or offsets[1:]),
//	                and no writes after the scan. Monotone, and bounded
//	                by the scan's returned total.
//
// The analysis is deliberately refusal-biased: any definition, alias,
// escape, or context it does not recognize refuses the site (soundness
// caveats are listed in docs/LINT.md). It is a client of the shared
// analysis core: which body a use runs in comes from the region map
// (races.go collectRegions), what a call does with an argument from the
// one dispatcher (writes.go callWrites), expression equality from
// exprs.go; what is its own is specific to offsets.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/core"
)

const (
	radixPath = "internal/radix"
	arenaPath = "internal/arena"
)

// ---------------------------------------------------------------------
// Execution context of a use: the loops, conditionals, and closures
// between the enclosing FuncDecl and the node.

// fillShape describes one recognized fill loop: iteration variable and
// the half-open space [lo, hi) (or a range statement's operand).
type fillShape struct {
	loopVar   types.Object
	lo, hi    ast.Expr // nil when rangeOver is set
	rangeOver ast.Expr
}

// loopCtx is one loop enclosing a node; fill is non-nil when the loop
// is a recognized fill shape. region is set for a core primitive's
// per-task body, whose loop node is the call.
type loopCtx struct {
	node   ast.Node // *ast.ForStmt, *ast.RangeStmt, or a primitive's *ast.CallExpr
	fill   *fillShape
	region *raceRegion
}

func (l loopCtx) begin() token.Pos { return l.node.Pos() }
func (l loopCtx) end() token.Pos   { return l.node.End() }

// evCtx summarizes the path between the FuncDecl and a node.
type evCtx struct {
	loops   []loopCtx
	cond    bool // inside if / switch / select
	unbound bool // inside a closure not tied to a modeled call
}

func (c evCtx) straightLine() bool { return len(c.loops) == 0 && !c.cond && !c.unbound }

// innerFill returns the innermost loop's fill shape, if recognized.
func (c evCtx) innerFill() (*fillShape, loopCtx, bool) {
	if len(c.loops) == 0 {
		return nil, loopCtx{}, false
	}
	l := c.loops[len(c.loops)-1]
	return l.fill, l, l.fill != nil
}

// ctxOf computes the execution context for a node from its ancestor
// path. Closures are bound by the races pass's region map
// (collectRegions): a core primitive's body written at its call is a
// loop over the call's index space — a fill when the call spells out lo
// and hi, directly (ForRange) or once the body's loop over its handed
// [lo, hi) folds into it (ForBlocks) — and core.Run's body runs once,
// in place. Every other closure is unbound: a body handed by name (its
// text is not where it runs, and the scan proof orders writes by
// position), a Join, Worker.For, go or MultiQueue body, and the rest.
func (p *prover) ctxOf(path []ast.Node) evCtx {
	var c evCtx
	for i, n := range path {
		switch v := n.(type) {
		case *ast.ForStmt:
			fill := p.seqFill(v)
			if k := len(c.loops); k > 0 && fill != nil {
				if l := &c.loops[k-1]; l.fill == nil && l.region != nil && l.region.lo != nil && l.region.rangeLo != nil &&
					p.isVar(fill.lo, l.region.rangeLo) && p.isVar(fill.hi, l.region.rangeHi) {
					l.fill = &fillShape{loopVar: fill.loopVar, lo: l.region.lo, hi: l.region.hi}
					continue
				}
			}
			c.loops = append(c.loops, loopCtx{node: v, fill: fill})
		case *ast.RangeStmt:
			c.loops = append(c.loops, loopCtx{node: v, fill: p.rangeFill(v)})
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			c.cond = true
		case *ast.FuncLit:
			call, _ := path[i-1].(*ast.CallExpr)
			switch r := p.regions[v.Body]; {
			case call != nil && r != nil && strings.HasPrefix(r.kind, "core."):
				l := loopCtx{node: call, region: r}
				if r.lo != nil && len(r.task) == 1 {
					for task := range r.task { // ForRange's index: a fill over the call's [lo, hi)
						l.fill = &fillShape{loopVar: task, lo: r.lo, hi: r.hi}
					}
				}
				c.loops = append(c.loops, l)
			case call != nil && slices.Index(call.Args, ast.Expr(v)) == 0 && p.runsOnce(call):
				// core.Run's body: executes once, in place.
			default:
				c.unbound = true
			}
		}
	}
	return c
}

// runsOnce reports a call to a primitive whose argument 0 is a body run
// exactly once, in place.
func (p *prover) runsOnce(call *ast.CallExpr) bool {
	_, prim := primitiveOf(p.f, call)
	return prim != nil && prim.once
}

// isVar reports whether e is a plain mention of obj.
func (p *prover) isVar(e ast.Expr, obj types.Object) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && p.tp.objOf(id) == obj
}

// seqFill recognizes `for i := lo; i < hi; i++`.
func (p *prover) seqFill(fs *ast.ForStmt) *fillShape {
	obj, shape := p.tp.countedLoop(fs)
	if shape == nil || shape.hi == nil || !shape.unit {
		return nil
	}
	return &fillShape{loopVar: obj, lo: shape.lo, hi: shape.hi}
}

// rangeFill recognizes `for i := range x`.
func (p *prover) rangeFill(rs *ast.RangeStmt) *fillShape {
	if rs.Tok != token.DEFINE || rs.Key == nil {
		return nil
	}
	id, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := p.tp.info.Defs[id]
	if obj == nil {
		return nil
	}
	return &fillShape{loopVar: obj, rangeOver: rs.X}
}

// ---------------------------------------------------------------------
// Classified uses. The bindings themselves come from the shared
// def-use facts (facts.go); the prover adds what each remaining mention
// of a container means for the proof.

type useKind int

const (
	useDef useKind = iota
	useAssign
	useElemWrite
	useScanArg
	usePermuteArg
	useOffsetsArg
	useRead
	useOther
)

// use is one classified occurrence of a tracked variable.
type use struct {
	kind      useKind
	pos       token.Pos
	ctx       evCtx
	rhs       ast.Expr    // def / assign / elem-write value
	op        token.Token // elem-write operator (ASSIGN, ADD_ASSIGN, INC, DEC)
	index     ast.Expr    // elem-write index
	from1     bool        // scan over x[1:]
	callName  string      // scan / permute primitive name
	scanTotal ast.Expr    // what the scan's total equals (scanTotal)
	resIdx    int         // tuple define: which result this variable binds
	tupleLhs  []ast.Expr  // tuple define: the full Lhs list (sibling results)
	why       string      // useOther reason
}

// ---------------------------------------------------------------------
// The prover: one (package, file, function) analysis scope.

type prover struct {
	a      *analysis
	tp     *typedPkg
	f      *fileInfo
	fd     *ast.FuncDecl
	loader *typeLoader // interprocedural summaries and shared facts

	ff      *funcFacts
	regions map[*ast.BlockStmt]*raceRegion // the parallel bodies, by body
	cmp     exprCmp                        // cross-point expression equality
	uses    map[types.Object][]*use        // usesOf's memo

	nn     map[types.Object]bool // non-negativity fixpoint (lazy)
	nnDone bool
}

func newProver(a *analysis, tp *typedPkg, f *fileInfo, fd *ast.FuncDecl, loader *typeLoader) *prover {
	p := &prover{a: a, tp: tp, f: f, fd: fd, loader: loader,
		ff: loader.factsOf(tp, fd), regions: map[*ast.BlockStmt]*raceRegion{}, uses: map[types.Object][]*use{}}
	for _, r := range collectRegions(p.ff, f) {
		p.regions[r.body] = r
	}
	p.cmp = exprCmp{tp: tp, cross: p}
	return p
}

func (p *prover) pos(pos token.Pos) token.Position { return p.a.fset.Position(pos) }
func (p *prover) line(pos token.Pos) int           { return p.pos(pos).Line }

// simpleDef returns obj's definition when it is a single plain one —
// x := e, var x [= e], or one result of x, y := f() — and nil for
// parameters, range variables and comma-ok forms.
func (p *prover) simpleDef(obj types.Object) *binding {
	if b := p.ff.of(obj).def(); b != nil && b.op == token.DEFINE {
		return b
	}
	return nil
}

// usesOf classifies (memoized) every mention of a variable in the
// function, in source order.
func (p *prover) usesOf(obj types.Object) []*use {
	if us, done := p.uses[obj]; done {
		return us
	}
	var us []*use
	for _, oc := range p.ff.of(obj).occs {
		u := p.classifyUse(oc, obj)
		u.pos, u.ctx = oc.id.Pos(), p.ctxOf(p.ff.pathTo(oc.id))
		us = append(us, u)
	}
	p.uses[obj] = us
	return us
}

// isContainer reports whether a variable is a slice or array (the types
// whose element writes and aliasing matter).
func isContainer(obj types.Object) bool {
	switch obj.Type().Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// classifyUse categorizes one mention. Scalars only need
// definition/assignment tracking (reads are always benign); containers
// get the strict treatment — any context not in the model poisons the
// variable.
func (p *prover) classifyUse(oc *occurrence, obj types.Object) *use {
	if b := oc.bind; b != nil {
		u := &use{kind: useAssign, op: b.op, rhs: b.rhs, resIdx: b.resIdx, tupleLhs: b.lhs}
		if b.define {
			u.kind = useDef
		}
		if b.op == token.RANGE {
			u.op, u.rhs = token.ILLEGAL, nil // a range variable has no foldable definition
		}
		return u
	}
	container := isContainer(obj)
	switch par := p.ff.parent[oc.id].(type) {
	case *ast.AssignStmt, *ast.ValueSpec:
		if container {
			return other("aliased through a second slice header")
		}
	case *ast.UnaryExpr:
		if par.Op == token.AND {
			return other("address taken")
		}
	case *ast.IndexExpr:
		if container && par.X == oc.id {
			return p.elemUse(par)
		}
	case *ast.CallExpr:
		if container {
			return p.callUse(oc.id, false, par)
		}
	case *ast.SliceExpr:
		if call, ok := p.ff.parent[par].(*ast.CallExpr); container && ok && isFrom1(par) {
			return p.callUse(par, true, call)
		}
		if container {
			return other("re-sliced (aliases the backing array)")
		}
	case *ast.RangeStmt, *ast.BinaryExpr, *ast.ReturnStmt:
		// Elements are copied, x == nil and friends, and the caller's
		// mutation happens after fd returns.
	default:
		if container {
			return other("used in an unmodeled context")
		}
	}
	return &use{kind: useRead}
}

func other(why string) *use { return &use{kind: useOther, why: why} }

// elemUse classifies x[i] for a container x: an element write, or a
// read.
func (p *prover) elemUse(ix *ast.IndexExpr) *use {
	switch st := p.ff.parent[ix].(type) {
	case *ast.AssignStmt:
		for i, lhs := range st.Lhs {
			switch {
			case lhs != ix:
			case len(st.Lhs) != len(st.Rhs):
				return other("element assigned from a multi-value expression")
			default:
				return &use{kind: useElemWrite, op: st.Tok, index: ix.Index, rhs: st.Rhs[i]}
			}
		}
	case *ast.IncDecStmt:
		if st.X == ix {
			return &use{kind: useElemWrite, op: st.Tok, index: ix.Index}
		}
	case *ast.UnaryExpr:
		if st.Op == token.AND {
			return other("address of an element taken")
		}
	}
	return &use{kind: useRead}
}

// isFrom1 matches the two-index slice x[1:].
func isFrom1(se *ast.SliceExpr) bool {
	if se.Slice3 || se.High != nil || se.Max != nil || se.Low == nil {
		return false
	}
	lit, ok := unparen(se.Low).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "1"
}

// callUse classifies a container passed to a call as arg (x, or x[1:]
// with from1). The primitive table's prover roles and radix's permuting
// sorts come first. Any other call answers through the shared
// dispatcher (writes.go callWrites): an argument the callee writes or
// keeps refuses, and so does one handed to a call chosen at run time,
// to a call whose result may carry it (the shared rooting rule roots a
// call's result at its reference inputs), to a callee that writes what
// its summary cannot root, or to a substrate primitive (whose summary
// drops what its callbacks do with the memory it hands them). Anything
// else only reads. CopyInto needs its reads row: it copies through one
// body holding dst and src, which the callee summary roots at the
// worse of the two.
func (p *prover) callUse(arg ast.Expr, from1 bool, call *ast.CallExpr) *use {
	if p.tp.isConversion(call) {
		return other("converted to another type")
	}
	i := slices.Index(call.Args, arg)
	if name, prim := primitiveOf(p.f, call); prim != nil && i > 0 { // a role the row leaves at 0 matches no argument
		switch {
		case i == prim.scans:
			return &use{kind: useScanArg, from1: from1, callName: name, scanTotal: p.scanTotal(call, prim)}
		case i == prim.permutes && !from1:
			return &use{kind: usePermuteArg, callName: name}
		case i == prim.reads:
			return &use{kind: useRead}
		case i == prim.offsets && !from1:
			return &use{kind: useOffsetsArg, callName: name}
		case i == prim.out && prim.offsets > 0 && !from1:
			return other("written through core." + name + " (it is the scatter target)")
		}
	}
	// SortPairsAt permutes its vals among the positions at lists, which it
	// validates as strictly increasing before it writes.
	if pathStr, name, isPkg := callTarget(p.f, call); isPkg && isPath(pathStr, radixPath) && !from1 &&
		(name == "SortPairs" && (i == 1 || i == 2) || name == "SortPairsAt" && i == 2) {
		return &use{kind: usePermuteArg, callName: name}
	}
	why, shared := "", ""
	delegated := p.loader.callWrites(p.tp, p.f, p.ff, call, func(ev writeEvent) bool {
		callee := ev.op
		if ev.via != nil {
			callee = ev.via.Name()
		}
		switch {
		case ev.shared != "":
			shared = "passed to " + callee + ", which " + ev.shared
		case ev.target != arg:
		case ev.kept != "":
			why = "kept by " + callee + ": " + ev.kept
		case ev.plain || ev.atomic:
			why = "written through " + callee
		case ev.via == nil:
		case isSubstrate(ev.via.Pkg().Path()):
			why = "passed to " + ev.via.Pkg().Name() + "." + callee
		}
		return why == ""
	})
	if why == "" {
		why = shared
	}
	switch {
	case why != "":
		return other(why)
	case delegated:
		return other("passed to " + types.ExprString(call.Fun) + ", a call chosen at run time")
	case carriesRef(p.tp.typeOf(call)):
		return other("passed to " + types.ExprString(call.Fun) + ", whose result may carry it")
	}
	return &use{kind: useRead}
}

// carriesRef reports whether a call's result, or any of its results,
// can carry a reference.
func carriesRef(t types.Type) bool {
	if tu, ok := t.(*types.Tuple); ok {
		for i := 0; i < tu.Len(); i++ {
			if refCarrying(tu.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return t != nil && refCarrying(t)
}

// scanTotal finds what a scan call's total equals: the argument the
// row names (CountSort's n), else the variable its returned total is
// bound to (`total := core.ScanInclusive(...)`), or nil.
func (p *prover) scanTotal(call *ast.CallExpr, prim *primitive) ast.Expr {
	if prim.total > 0 {
		return call.Args[prim.total]
	}
	if as, ok := p.ff.parent[call].(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			return id
		}
	}
	return nil
}

// sliceAlloc returns the length of a make or arena slice checkout
// (arenaCheckout) and whether its contents start zeroed — not for
// AllocUninit, whose garbage from earlier generations cannot seed the
// zero-init side of the scan proof; nil when call is neither.
func (p *prover) sliceAlloc(call *ast.CallExpr) (ast.Expr, bool) {
	if builtinOf(p.tp, call) == "make" && len(call.Args) >= 2 {
		return call.Args[1], true
	}
	name, length := arenaCheckout(p.f, call)
	return length, name == "Alloc"
}

// makeLen returns the length expression of obj's defining allocation
// (make or an arena checkout), or nil when obj is not a stable
// allocation-defined slice.
func (p *prover) makeLen(obj types.Object) ast.Expr {
	if obj == nil {
		return nil
	}
	f, def := p.ff.of(obj), p.simpleDef(obj)
	if def == nil || f.assigns() > 0 || f.addrTaken {
		return nil
	}
	call, ok := unparen(def.rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	L, _ := p.sliceAlloc(call)
	return L
}

// stableObj reports whether a variable provably holds one value for the
// whole function: a single definition (or parameter), never reassigned,
// address never taken.
func (p *prover) stableObj(obj types.Object) bool {
	f := p.ff.of(obj)
	if f.addrTaken || f.assigns() > 0 {
		return false
	}
	return f.param || p.simpleDef(obj) != nil
}

// ---------------------------------------------------------------------
// Affine forms a*i + c.

// affineForm is the result of parsing an expression as a*i + c over one
// loop variable; hasVar reports that i occurs at all (even with a = 0).
type affineForm struct {
	a, c   int64
	hasVar bool
}

// parseAffine parses e as a*i + c with constant a and c over loopVar:
// the shared affine parser over canonical expressions, accepted only
// when the loop variable is the sole atom.
func (p *prover) parseAffine(e ast.Expr, loopVar types.Object) (affineForm, bool) {
	sum, ok := affineEnv{tp: p.tp, norm: p.cmp.norm}.parse(e)
	if !ok {
		return affineForm{}, false
	}
	f := affineForm{c: sum.k}
	for _, t := range sum.terms {
		if t.obj != loopVar {
			return affineForm{}, false
		}
		f.a, f.hasVar = t.coef, true
	}
	return f, true
}

// parseReverse matches the descending identity B-1-i (or (B-1)-i) for a
// fill over [0, B): a permutation of [0, B) like the identity.
func (p *prover) parseReverse(e ast.Expr, loopVar types.Object, bound ast.Expr) bool {
	be, ok := p.cmp.norm(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.SUB {
		return false
	}
	id, ok := unparen(be.Y).(*ast.Ident)
	if !ok || p.tp.objOf(id) != loopVar {
		return false
	}
	lhs, ok := p.cmp.norm(be.X).(*ast.BinaryExpr)
	if ok && lhs.Op == token.SUB {
		if one, isC := p.tp.constInt(lhs.Y); isC && one == 1 && p.cmp.eq(lhs.X, bound) {
			return true
		}
	}
	if cv, isC := p.tp.constInt(be.X); isC {
		if bv, bIsC := p.tp.constInt(bound); bIsC && cv == bv-1 {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Non-negativity lattice (greatest fixpoint, flow-insensitive).

// ensureNN computes, once per function, the set of local integer
// variables and zero-initialized integer containers whose every written
// value is provably non-negative. The fixpoint starts from "all
// candidates non-negative" and removes any variable with a write the
// assumption set cannot justify; since every remaining write's sources
// are themselves in the set, induction over execution steps makes the
// result sound.
func (p *prover) ensureNN() {
	if p.nnDone {
		return
	}
	p.nnDone = true
	p.nn = map[types.Object]bool{}
	deps := map[types.Object][]ast.Expr{}

	for obj, f := range p.ff.vars {
		def := p.simpleDef(obj)
		if f.addrTaken || f.param || def == nil {
			continue
		}
		ok, d := true, []ast.Expr{}
		write := func(op token.Token, rhs ast.Expr) {
			switch op {
			case token.ASSIGN, token.ADD_ASSIGN, token.MUL_ASSIGN:
				d = append(d, rhs)
			case token.INC:
			default:
				ok = false
			}
		}
		switch {
		case isContainer(obj):
			if !isIntElem(obj.Type()) || f.assigns() > 0 || !p.zeroInitContainer(def.rhs) {
				continue
			}
			for _, u := range p.usesOf(obj) {
				switch u.kind {
				case useDef, useRead, useScanArg, usePermuteArg, useOffsetsArg:
				case useElemWrite:
					write(u.op, u.rhs)
				default:
					ok = false
				}
			}
		case isIntType(obj.Type()):
			for _, w := range f.binds {
				if w.define && w.rhs != nil {
					d = append(d, w.rhs)
				} else if !w.define {
					write(w.op, w.rhs)
				}
			}
		default:
			continue
		}
		if ok {
			p.nn[obj] = true
			deps[obj] = d
		}
	}

	for changed := true; changed; {
		changed = false
		for obj := range p.nn {
			for _, d := range deps[obj] {
				if d == nil || !p.nnExpr(d) {
					delete(p.nn, obj)
					changed = true
					break
				}
			}
		}
	}
}

// zeroInitContainer reports a definition with all-zero initial
// contents: make(...), arena.Alloc (which clears its checkout), or a
// var declaration with no value. arena.AllocUninit fails here — its
// contents are garbage from earlier arena generations.
func (p *prover) zeroInitContainer(def ast.Expr) bool {
	if def == nil {
		return true // var x [N]T / var x []T
	}
	call, ok := unparen(def).(*ast.CallExpr)
	if !ok {
		return false
	}
	_, zeroed := p.sliceAlloc(call)
	return zeroed
}

func isIntElem(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isIntType(u.Elem())
	case *types.Array:
		return isIntType(u.Elem())
	}
	return false
}

// nnExpr proves an expression non-negative under the current
// assumption set.
func (p *prover) nnExpr(e ast.Expr) bool {
	e = p.cmp.norm(e)
	if v := p.tp.constVal(e); v != nil {
		return constant.Sign(constant.ToInt(v)) >= 0
	}
	if isUnsignedInt(p.tp.typeOf(e)) {
		return true // unsigned values cannot be negative
	}
	switch v := e.(type) {
	case *ast.Ident:
		return p.nn[p.tp.objOf(v)]
	case *ast.IndexExpr:
		return p.nnVar(v.X)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.MUL, token.QUO, token.REM, token.AND, token.SHR, token.OR:
			return p.nnExpr(v.X) && p.nnExpr(v.Y)
		}
	case *ast.UnaryExpr:
		if v.Op == token.ADD {
			return p.nnExpr(v.X)
		}
	case *ast.CallExpr:
		if name := builtinOf(p.tp, v); name == "len" || name == "cap" {
			return true
		}
		if _, prim := primitiveOf(p.f, v); prim != nil && prim.scans > 0 && prim.scans < len(v.Args) {
			arg := unparen(v.Args[prim.scans])
			if se, isSE := arg.(*ast.SliceExpr); isSE {
				arg = se.X
			}
			return p.nnVar(arg)
		}
		// An in-module helper whose summary proves every value it
		// returns >= 0, whatever its arguments (summary.go).
		if fn := resolveCall(p.tp, v, nil).fn; fn != nil && p.loader.nonNegative(fn) {
			return true
		}
	}
	return false
}

// nnVar reports whether e names a variable the fixpoint keeps
// non-negative.
func (p *prover) nnVar(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && p.nn[p.tp.objOf(id)]
}

// ---------------------------------------------------------------------
// Length denotations: "len(out)" facts that survive canonicalization.

// lenDenot denotes a slice length: a concrete expression, symbolically
// len(lenOf) for a variable with no make definition (a parameter), or a
// bare constant (hasC) produced by a function summary whose bound has
// no expression in the caller's file.
type lenDenot struct {
	expr  ast.Expr
	lenOf types.Object
	cval  int64
	hasC  bool
}

// denotEq compares two length denotations canonically.
func (p *prover) denotEq(a, b lenDenot) bool {
	if a.hasC || b.hasC {
		av, aok := p.denotConst(a)
		bv, bok := p.denotConst(b)
		return aok && bok && av == bv
	}
	if a.expr != nil && b.expr != nil {
		return p.cmp.eq(a.expr, b.expr)
	}
	if a.expr == nil && b.expr == nil {
		return a.lenOf != nil && a.lenOf == b.lenOf && p.stableObj(a.lenOf)
	}
	e, o := a.expr, b.lenOf
	if e == nil {
		e, o = b.expr, a.lenOf
	}
	if o == nil {
		return false
	}
	if M := p.makeLen(o); M != nil {
		return p.cmp.eq(e, M)
	}
	call, ok := p.cmp.norm(e).(*ast.CallExpr)
	return ok && builtinOf(p.tp, call) == "len" && len(call.Args) == 1 && p.isVar(call.Args[0], o) && p.stableObj(o)
}

// denotConst evaluates a length denotation to a constant.
func (p *prover) denotConst(d lenDenot) (int64, bool) {
	if d.hasC {
		return d.cval, true
	}
	e := d.expr
	if e == nil {
		e = p.makeLen(d.lenOf)
	}
	if e == nil {
		return 0, false
	}
	return p.tp.constInt(p.cmp.norm(e))
}

// ---------------------------------------------------------------------
// The proofs.

// targetSite is one IndForEach/IndChunks/Scatter/*Unchecked call under
// certification.
type targetSite struct {
	call *ast.CallExpr
	name string
	prim *primitive
	ctx  evCtx
	pos  token.Pos
}

// provePoint is the program point at which a provenance proof must
// hold: a real certification site (where the bound is checked against
// the call's target slice) or a helper's return statement (where the
// bound is captured for a function summary instead).
type provePoint struct {
	pos      token.Pos
	ctx      evCtx
	pattern  core.Pattern
	property string
	sink     boundSink
}

// boundSink receives the proved domain bound of an offsets proof.
type boundSink interface {
	// matchLen accepts the proved bound (the filled/packed/permuted
	// domain length) with "", or returns why not: mismatch, the proof's
	// own message, when the bound differs, or a hard refusal (the target
	// length cannot be resolved).
	matchLen(p *prover, bound lenDenot, mismatch string) string
	// constOutLen resolves the target length to a constant, for proofs
	// that need a concrete range check (non-identity affine fills).
	constOutLen(p *prover) (int64, bool, string)
}

// siteSink checks the bound against a real call site's target slice.
type siteSink struct{ s *targetSite }

func (k *siteSink) matchLen(p *prover, bound lenDenot, mismatch string) string {
	outLen, why := p.outDenot(k.s)
	if why == "" && !p.denotEq(outLen, bound) {
		return mismatch
	}
	return why
}

func (k *siteSink) constOutLen(p *prover) (int64, bool, string) {
	outLen, why := p.outDenot(k.s)
	if why != "" {
		return 0, false, why
	}
	v, ok := p.denotConst(outLen)
	return v, ok, ""
}

// captureSink records the bound for the summary builder; every bound is
// accepted (the caller of the summary does the checking).
type captureSink struct {
	bound    lenDenot
	hasBound bool
}

func (k *captureSink) matchLen(p *prover, bound lenDenot, mismatch string) string {
	k.bound, k.hasBound = bound, true
	return ""
}

func (k *captureSink) constOutLen(p *prover) (int64, bool, string) {
	return 0, false, "the fill range check needs a concrete target length, which a function summary does not have"
}

// siteProof is the outcome for one site: a discharged property with a
// human-readable proof chain, or a refusal with the first reason found.
type siteProof struct {
	ok       bool
	source   string // packindex | affine-fill | permutation | scan
	property string
	chain    []string
	reason   string
}

func refusal(format string, args ...any) siteProof {
	return siteProof{reason: fmt.Sprintf(format, args...)}
}

// dominates reports that the prove point executes strictly after
// program point `after`: textually later, and no loop around the point
// begins before it (which could re-run the point ahead of the event).
func (p *prover) dominates(after token.Pos, pt *provePoint) bool {
	if pt.pos <= after {
		return false
	}
	for _, l := range pt.ctx.loops {
		if l.begin() <= after {
			return false
		}
	}
	return true
}

// prove runs the provenance analysis for one call site.
func (p *prover) prove(s *targetSite) siteProof {
	if len(s.call.Args) <= s.prim.offsets {
		return refusal("call has too few arguments to locate the offsets")
	}
	if s.ctx.unbound {
		return refusal("call site is inside a closure the analysis cannot bind to a primitive")
	}
	offID, ok := unparen(s.call.Args[s.prim.offsets]).(*ast.Ident)
	if !ok {
		return refusal("offsets argument is not a simple local variable")
	}
	pt := &provePoint{
		pos: s.pos, ctx: s.ctx,
		pattern: s.prim.pattern(), property: s.prim.property(),
		sink: &siteSink{s: s},
	}
	return p.proveVar(pt, offID)
}

// proveVar proves the required property for one offsets variable at one
// prove point. It is shared between real call sites and the summary
// builder (which proves a helper's returned slice at its return
// statement).
func (p *prover) proveVar(pt *provePoint, offID *ast.Ident) siteProof {
	obj := p.tp.objOf(offID)
	if obj == nil {
		return refusal("offsets variable does not resolve (type information incomplete)")
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return refusal("offsets argument is not a variable")
	}
	if p.ff.of(obj).param {
		return refusal("offsets %q is a parameter (provenance is intraprocedural)", offID.Name)
	}

	// Partition every occurrence of the variable.
	var defs, writes, scans, permutes []*use
	for _, u := range p.usesOf(obj) {
		switch u.kind {
		case useDef:
			defs = append(defs, u)
		case useAssign:
			return refusal("offsets %q is reassigned at line %d", offID.Name, p.line(u.pos))
		case useElemWrite:
			writes = append(writes, u)
		case useScanArg:
			scans = append(scans, u)
		case usePermuteArg:
			permutes = append(permutes, u)
		case useOffsetsArg, useRead:
		case useOther:
			return refusal("offsets %q %s (line %d)", offID.Name, u.why, p.line(u.pos))
		}
	}
	if len(defs) != 1 || p.simpleDef(obj) == nil {
		return refusal("offsets %q has no single recognized definition", offID.Name)
	}
	def := defs[0]
	if !def.ctx.straightLine() {
		return refusal("offsets %q is defined inside a loop, conditional, or closure", offID.Name)
	}
	for _, u := range append(append(append([]*use{}, writes...), scans...), permutes...) {
		if u.ctx.unbound {
			return refusal("offsets %q is touched inside a closure the analysis cannot bind (line %d)",
				offID.Name, p.line(u.pos))
		}
	}

	// Dispatch on the defining expression.
	if def.rhs != nil {
		if call, isCall := unparen(def.rhs).(*ast.CallExpr); isCall {
			if _, prim := primitiveOf(p.f, call); prim != nil && prim.packs {
				return p.provePackIndex(pt, offID.Name, def, call, writes, scans, permutes)
			}
			if length, zeroed := p.sliceAlloc(call); length != nil {
				switch {
				case len(scans) > 0:
					if !zeroed {
						return refusal("offsets %q is checked out uninitialized (arena.AllocUninit); the scan proof needs zeroed contents", offID.Name)
					}
					return p.proveScan(pt, offID.Name, obj, writes, scans, permutes)
				case len(permutes) > 0:
					return p.provePermutation(pt, offID.Name, obj, writes, permutes)
				case len(writes) > 0:
					return p.proveAffine(pt, offID.Name, obj, writes)
				}
				return refusal("offsets %q is allocated but never filled", offID.Name)
			}
			// Interprocedural: offsets comes straight out of an
			// in-module helper whose returned slice the summary engine
			// can certify, and is never touched afterwards.
			if len(writes)+len(scans)+len(permutes) == 0 {
				if sp, handled := p.proveViaSummary(pt, offID.Name, def, call); handled {
					return sp
				}
			}
		}
	}
	return refusal("offsets %q has a definition form the analysis does not model", offID.Name)
}

// provePackIndex discharges P1: PackIndex output used as-is.
func (p *prover) provePackIndex(pt *provePoint, name string, def *use, pack *ast.CallExpr,
	writes, scans, permutes []*use) siteProof {
	if len(writes)+len(scans)+len(permutes) > 0 {
		var first *use
		for _, u := range append(append(append([]*use{}, writes...), scans...), permutes...) {
			if first == nil || u.pos < first.pos {
				first = u
			}
		}
		return refusal("offsets %q is mutated after core.PackIndex at line %d", name, p.line(first.pos))
	}
	if !p.dominates(pack.End(), pt) {
		return refusal("call site does not strictly follow the PackIndex definition")
	}
	if len(pack.Args) < 2 {
		return refusal("PackIndex call has an unexpected shape")
	}
	if why := pt.sink.matchLen(p, lenDenot{expr: pack.Args[1]}, "cannot prove len(target) equals the PackIndex domain bound"); why != "" {
		return refusal("%s", why)
	}
	return siteProof{
		ok: true, source: "packindex", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q := core.PackIndex(w, n, keep) at line %d: output is strictly increasing and unique in [0, n)", name, p.line(def.pos)),
			"no writes, aliases, or reorderings after the definition",
			"len(target) == n: every offset is in bounds",
		},
	}
}

// fillFacts describes a validated fill: the one write, the loop around
// it, the domain bound it covers, and its value as a*i+c — or, with rev
// set, the descending identity B-1-i.
type fillFacts struct {
	w     *use
	bound lenDenot
	lc    loopCtx
	aff   affineForm
	rev   bool
}

// checkIdentityFill validates the single complete fill write and
// classifies its value as identity / reverse / general affine. A nil
// result comes with the refusal.
func (p *prover) checkIdentityFill(name string, obj types.Object, writes []*use) (*fillFacts, siteProof) {
	if len(writes) != 1 {
		return nil, refusal("offsets %q has %d writes; the fill proof needs exactly one", name, len(writes))
	}
	w := writes[0]
	switch {
	case w.ctx.unbound:
		return nil, refusal("the fill write to %q is inside an unmodeled closure", name)
	case w.ctx.cond:
		return nil, refusal("the fill write to %q is conditional", name)
	case len(w.ctx.loops) != 1:
		return nil, refusal("the fill write to %q is not inside a single recognized loop", name)
	}
	lc := w.ctx.loops[0]
	fill := lc.fill
	if fill == nil {
		return nil, refusal("the loop filling %q has an unrecognized shape", name)
	}
	idxID, ok := p.cmp.norm(w.index).(*ast.Ident)
	if !ok || p.tp.objOf(idxID) != fill.loopVar {
		return nil, refusal("the fill index into %q is not the loop variable", name)
	}
	if w.op != token.ASSIGN {
		return nil, refusal("the fill write to %q is not a plain assignment", name)
	}
	bound, trackedLen := lenDenot{}, lenDenot{lenOf: obj}
	if fill.rangeOver != nil {
		ro, isID := unparen(fill.rangeOver).(*ast.Ident)
		if !isID || p.tp.objOf(ro) != obj {
			return nil, refusal("the fill ranges over a slice other than %q", name)
		}
		bound = trackedLen
	} else {
		if lo, isC := p.tp.constInt(fill.lo); !isC || lo != 0 {
			return nil, refusal("the fill of %q does not start at index 0", name)
		}
		bound = lenDenot{expr: fill.hi}
		if !p.denotEq(bound, trackedLen) {
			return nil, refusal("the fill does not cover all of %q (loop bound differs from its length)", name)
		}
	}
	boundExpr := bound.expr
	if boundExpr == nil {
		boundExpr = p.makeLen(obj)
	}
	fp := &fillFacts{w: w, bound: bound, lc: lc}
	if a, ok := p.parseAffine(w.rhs, fill.loopVar); ok && (a.hasVar || a.a == 0) {
		fp.aff = a
		return fp, siteProof{}
	}
	if boundExpr != nil && p.parseReverse(w.rhs, fill.loopVar, boundExpr) {
		fp.rev = true
		return fp, siteProof{}
	}
	return nil, refusal("the value stored in %q is not affine in the loop variable", name)
}

// proveAffine discharges P2: a complete affine fill a*i + c, a != 0.
func (p *prover) proveAffine(pt *provePoint, name string, obj types.Object, writes []*use) siteProof {
	fill, sp := p.checkIdentityFill(name, obj, writes)
	if fill == nil {
		return sp
	}
	w, bound, lc, aff, rev := fill.w, fill.bound, fill.lc, fill.aff, fill.rev
	if !rev && aff.a == 0 {
		return refusal("offsets %q fill is affine with stride 0 (a*i+c, a=0): values repeat", name)
	}
	if pt.pattern == core.RngInd && (rev || aff.a < 0) {
		return refusal("offsets %q fill is descending: unique but not monotone", name)
	}
	if !p.dominates(lc.end(), pt) {
		return refusal("call site does not strictly follow the fill loop")
	}
	if rev || (aff.a == 1 && aff.c == 0) {
		if why := pt.sink.matchLen(p, bound, fmt.Sprintf("cannot prove len(target) covers the filled range of %q", name)); why != "" {
			return refusal("%s", why)
		}
	} else {
		bv, bok := p.denotConst(bound)
		lv, lok, why := pt.sink.constOutLen(p)
		if why != "" {
			return refusal("%s", why)
		}
		if !bok || !lok {
			return refusal("offsets %q fill is affine (a=%d, c=%d) but bounds are only provable for constant sizes", name, aff.a, aff.c)
		}
		lo, hi := aff.c, aff.a*(bv-1)+aff.c
		if aff.a < 0 {
			lo, hi = hi, lo
		}
		if bv > 0 && (lo < 0 || hi >= lv) {
			return refusal("offsets %q affine fill writes values outside [0, len(target))", name)
		}
	}
	desc := fmt.Sprintf("a=%d, c=%d", aff.a, aff.c)
	if rev {
		desc = "descending identity B-1-i"
	}
	return siteProof{
		ok: true, source: "affine-fill", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q is filled as a*i+c (%s) by a complete loop over [0, len) at line %d: injective", name, desc, p.line(w.pos)),
			"no other writes, aliases, or reorderings",
			"fill values lie in [0, len(target)): every offset is in bounds",
		},
	}
}

// provePermutation discharges P3: an identity fill whose only later
// mutations are permutation-preserving sorts, so the slice remains a
// permutation of [0, len).
func (p *prover) provePermutation(pt *provePoint, name string, obj types.Object, writes, permutes []*use) siteProof {
	if pt.pattern == core.RngInd {
		return refusal("offsets %q is a sorted permutation: unique, but monotonicity is not preserved by later sorts", name)
	}
	fill, sp := p.checkIdentityFill(name, obj, writes)
	if fill == nil {
		return sp
	}
	w, bound, lc, aff, rev := fill.w, fill.bound, fill.lc, fill.aff, fill.rev
	if !rev && !(aff.a == 1 && aff.c == 0) {
		return refusal("offsets %q permutation proof needs an identity fill (found a=%d, c=%d)", name, aff.a, aff.c)
	}
	for _, u := range permutes {
		if u.pos <= lc.end() {
			return refusal("offsets %q is sorted before its identity fill completes", name)
		}
	}
	if !p.dominates(lc.end(), pt) {
		return refusal("call site does not strictly follow the identity fill")
	}
	if why := pt.sink.matchLen(p, bound, fmt.Sprintf("cannot prove len(target) covers the permuted range of %q", name)); why != "" {
		return refusal("%s", why)
	}
	return siteProof{
		ok: true, source: "permutation", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q is identity-filled over [0, len) at line %d", name, p.line(w.pos)),
			fmt.Sprintf("only permutation-preserving operations (%s) touch it afterwards: it remains a permutation of [0, len)", permuteNames(permutes)),
			"len(target) == len(offsets): every offset is unique and in bounds",
		},
	}
}

func permuteNames(permutes []*use) string {
	seen := map[string]bool{}
	out := ""
	for _, u := range permutes {
		if seen[u.callName] {
			continue
		}
		seen[u.callName] = true
		if out != "" {
			out += ", "
		}
		out += u.callName
	}
	return out
}

// proveScan discharges P4: zero-initialized, non-negative pre-scan
// writes, one prefix scan, untouched afterwards.
func (p *prover) proveScan(pt *provePoint, name string, obj types.Object, writes, scans, permutes []*use) siteProof {
	if pt.pattern == core.SngInd {
		return refusal("offsets %q is a prefix scan: monotone, but empty buckets repeat values so uniqueness fails", name)
	}
	if len(permutes) > 0 {
		return refusal("offsets %q is re-ordered (sorted) around the scan: monotonicity is lost", name)
	}
	if len(scans) != 1 {
		return refusal("offsets %q is scanned %d times; the proof needs exactly one scan", name, len(scans))
	}
	scan := scans[0]
	if !scan.ctx.straightLine() {
		return refusal("the scan of %q is inside a loop, conditional, or closure", name)
	}
	p.ensureNN()
	for _, w := range writes {
		if w.pos >= scan.pos {
			return refusal("offsets %q is mutated after the scan (line %d)", name, p.line(w.pos))
		}
		for _, l := range w.ctx.loops {
			if l.end() >= scan.pos {
				return refusal("a loop writing %q overlaps the scan", name)
			}
		}
		switch w.op {
		case token.INC:
		case token.ASSIGN, token.ADD_ASSIGN:
			if !p.nnExpr(w.rhs) {
				return refusal("cannot prove the value written to %q at line %d non-negative", name, p.line(w.pos))
			}
		default:
			return refusal("offsets %q is decremented or combined with an unmodeled operator at line %d", name, p.line(w.pos))
		}
		if scan.from1 && !p.indexAtLeastOne(w) {
			return refusal("the scan covers %s[1:] but a write at line %d may touch index 0", name, p.line(w.pos))
		}
	}
	if !p.dominates(scan.pos, pt) {
		return refusal("call site does not strictly follow the scan")
	}
	total := scan.scanTotal
	if id, isID := total.(*ast.Ident); total == nil || isID && !p.stableObj(p.tp.objOf(id)) {
		return refusal("the scan's total is not bound to a stable variable")
	}
	bound := fmt.Sprintf("returned total %q", types.ExprString(total))
	if primitives[scan.callName].total > 0 {
		bound = types.ExprString(total) + ", the count passed to core." + scan.callName
	}
	if why := pt.sink.matchLen(p, lenDenot{expr: total}, "cannot prove len(target) equals the scan's total, "+bound); why != "" {
		return refusal("%s", why)
	}
	form := "offsets"
	if scan.from1 {
		form = "offsets[1:] (index 0 stays zero)"
	}
	return siteProof{
		ok: true, source: "scan", property: pt.property,
		chain: []string{
			fmt.Sprintf("offsets %q starts zeroed and every pre-scan write is non-negative", name),
			fmt.Sprintf("core.%s over %s at line %d: prefix sums of non-negative values are monotone", scan.callName, form, p.line(scan.pos)),
			fmt.Sprintf("no mutation after the scan; len(target) == %s: boundaries are in bounds", bound),
		},
	}
}

// indexAtLeastOne proves a write index >= 1: a constant, or a*i+c with
// a >= 0, c >= 1 over a loop variable starting at a non-negative bound.
func (p *prover) indexAtLeastOne(w *use) bool {
	if v, ok := p.tp.constInt(p.cmp.norm(w.index)); ok {
		return v >= 1
	}
	fill, _, ok := w.ctx.innerFill()
	if !ok {
		return false
	}
	if fill.rangeOver == nil {
		lo, isC := p.tp.constInt(fill.lo)
		if !isC || lo < 0 {
			return false
		}
	}
	aff, ok := p.parseAffine(w.index, fill.loopVar)
	return ok && aff.hasVar && aff.a >= 0 && aff.c >= 1
}

// outDenot resolves the length denotation of the call's target slice.
func (p *prover) outDenot(s *targetSite) (lenDenot, string) {
	if len(s.call.Args) <= s.prim.out {
		return lenDenot{}, "call has no target argument"
	}
	id, ok := unparen(s.call.Args[s.prim.out]).(*ast.Ident)
	if !ok {
		return lenDenot{}, "target slice is not a simple variable; its length cannot be tracked"
	}
	obj := p.tp.objOf(id)
	if obj == nil {
		return lenDenot{}, "target slice does not resolve (type information incomplete)"
	}
	f := p.ff.of(obj)
	if f.addrTaken || f.assigns() > 0 {
		return lenDenot{}, fmt.Sprintf("target slice %q does not have a stable header", id.Name)
	}
	if M := p.makeLen(obj); M != nil {
		return lenDenot{expr: M}, ""
	}
	if f.param {
		return lenDenot{lenOf: obj}, ""
	}
	return lenDenot{}, fmt.Sprintf("target slice %q has no trackable length", id.Name)
}
