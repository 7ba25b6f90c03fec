package lint

// The lifetimes flow walk: a per-function, statement-ordered dataflow
// over arena checkouts. Lexical order approximates dominance (the same
// bargain the certify and races passes strike): a statement is assumed
// to execute after the one above it, loops execute their body once,
// and both branches of an if are walked in order. The walk is
// refusal-biased — anything it cannot prove confined is refused with a
// proof-chain reason — so the approximation errs toward noise, never
// toward silence.
//
// Closure bodies are walked inline at their FIRST reference (call
// argument or direct call), not at their definition: a named closure
// like isort's syncScatter reads memory a helper call fills between
// the definition and the first use, and walking at the definition
// would refuse a read that can never happen uninitialized.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// lifeMethodContracts are out-parameter contracts for dynamic
// (interface) callees the walk cannot summarize: the named method
// fills its slice argument and returns an alias of it, retaining
// nothing. RowInto/WRow are the Adjacency seam's row decoders.
var lifeMethodContracts = map[string]bool{
	"RowInto": true,
	"WRow":    true,
}

// arenaRec is one tracked arena identity.
type arenaRec struct {
	gen   int // bumped by Reset
	stack []*markRec
}

// markRec is one live Mark checkout point.
type markRec struct {
	ar       *arenaRec
	gen      int // arena generation at Mark time
	released bool
	deferRel bool // released via defer: covers panic edges, all paths
}

// checkout is one tracked arena allocation and everything aliasing it.
type checkout struct {
	origin string // Alloc | AllocUninit | AcquireBox
	node   ast.Node
	expr   string // first binding, for display
	ar     *arenaRec
	mark   *markRec // innermost live mark at allocation (nil: unmarked)

	uninit  bool // AllocUninit: reads must be dominated by a fill
	written bool

	isBox     bool
	boxType   string
	fields    map[string]*checkout // live transit stores into this box
	deferRelB bool                 // ReleaseBox via defer

	regionBody *ast.BlockStmt // innermost parallel region at allocation
	goBody     *ast.BlockStmt // innermost go-launched closure at allocation

	workerConf string // worker-confined detail, decided at a store site

	released   bool
	releasedBy string // Release | Reset | ReleaseBox

	class, detail, reason string
	marker                bool
}

// bindName records the first carrier a checkout is bound to, for
// display.
func (co *checkout) bindName(name string) {
	if co.expr == "" || co.expr == "_" {
		co.expr = name
	}
}

// valDesc is what an expression evaluates to, as far as the walk cares.
type valDesc struct {
	co   *checkout   // expression aliases this checkout's memory
	held []*checkout // expression holds references to these checkouts
	mark *markRec
	ar   *arenaRec
}

func (v *valDesc) all() []*checkout {
	if v == nil {
		return nil
	}
	if v.co != nil {
		return append([]*checkout{v.co}, v.held...)
	}
	return v.held
}

// lifeWalk is the per-function walk state.
type lifeWalk struct {
	l  *typeLoader
	ff *funcFacts // def-use facts; resolves named closures
	tp *typedPkg
	f  *fileInfo
	fd *ast.FuncDecl

	regionByBody map[*ast.BlockStmt]*raceRegion

	walked map[*ast.FuncLit]bool

	carriers map[types.Object]*checkout
	holders  map[types.Object][]*checkout
	marks    map[types.Object]*markRec
	arenas   map[types.Object]*arenaRec

	regionStack []*ast.BlockStmt
	goStack     []*ast.BlockStmt

	cos       []*checkout
	sites     []LifeSite
	markCount int
}

func newLifeWalk(l *typeLoader, ff *funcFacts, f *fileInfo, regions []*raceRegion) *lifeWalk {
	lw := &lifeWalk{
		l: l, ff: ff, tp: ff.tp, f: f, fd: ff.fd,
		regionByBody: map[*ast.BlockStmt]*raceRegion{},
		walked:       map[*ast.FuncLit]bool{},
		carriers:     map[types.Object]*checkout{},
		holders:      map[types.Object][]*checkout{},
		marks:        map[types.Object]*markRec{},
		arenas:       map[types.Object]*arenaRec{},
	}
	for _, r := range regions {
		lw.regionByBody[r.body] = r
	}
	return lw
}

// run walks the function body and classifies every checkout.
func (lw *lifeWalk) run() {
	walkStmts(lw, lw.fd.Body.List)
	lw.finalize()
}

// refuse records a refusal on a checkout, keeping the first reason.
func (lw *lifeWalk) refuse(co *checkout, n ast.Node, reason string) {
	if co == nil || co.class == LifeRefused {
		return
	}
	co.class, co.detail, co.reason = LifeRefused, "", reason
	co.marker = lw.l.a.markerFor(lw.f, n) || lw.l.a.markerFor(lw.f, co.node)
}

// violation records a refusal site that is not a checkout (a bad
// Release).
func (lw *lifeWalk) violation(n ast.Node, expr, reason string) {
	lw.sites = append(lw.sites, LifeSite{
		sitePos: lw.l.a.sitePos(lw.f, n),
		Func:    lw.fd.Name.Name, Origin: "Release", Expr: expr,
		Class: LifeRefused, Reason: reason,
		Marker: lw.l.a.markerFor(lw.f, n),
	})
}

// settle classifies a checkout that reached a release point.
func settle(co *checkout, class, detail string) {
	if co.class == LifeRefused {
		return
	}
	co.class, co.detail = class, detail
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

func (lw *lifeWalk) expr(e ast.Expr) { lw.eval(e) }

// stmt tracks checkouts through one simple statement (walkStmt).
func (lw *lifeWalk) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.AssignStmt:
		lw.assign(v)
	case *ast.ExprStmt:
		lw.eval(v.X)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						lw.bindIdent(name, lw.eval(vs.Values[i]), vs)
					}
				}
			}
		}
	case *ast.RangeStmt:
		d := lw.eval(v.X)
		if d != nil && d.co != nil && v.Value != nil {
			lw.readCheck(d.co, v.X) // range-with-value reads elements
		}
	case *ast.SendStmt:
		lw.eval(v.Chan)
		d := lw.eval(v.Value)
		for _, co := range d.all() {
			lw.refuse(co, v, "sent on a channel: the receiver outlives the checkout")
		}
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			d := lw.eval(res)
			for _, co := range d.all() {
				lw.refuse(co, v, fmt.Sprintf("returned from %s: the caller outlives the checkout", lw.fd.Name.Name))
			}
		}
	case *ast.DeferStmt:
		lw.deferred(v.Call)
	case *ast.GoStmt:
		lw.goStmt(v)
	case *ast.IncDecStmt:
		// carrier[i]++ reads then writes the element.
		if ix, ok := unparen(v.X).(*ast.IndexExpr); ok {
			if co := lw.carrierOf(ix.X); co != nil {
				lw.readCheck(co, v)
				co.written = true
				lw.eval(ix.Index)
				return
			}
		}
		lw.eval(v.X)
	}
}

// deferred handles a defer statement: a deferred Release/ReleaseBox
// covers panic edges, so it proves release on all paths.
func (lw *lifeWalk) deferred(call *ast.CallExpr) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isNamed(lw.tp.typeOf(sel.X), arenaPath, "Arena") {
		if sel.Sel.Name == "Release" && len(call.Args) == 1 {
			if mr := lw.markOf(call.Args[0]); mr != nil {
				mr.deferRel = true
				return
			}
		}
	}
	if pathStr, name, isPkg := callTarget(lw.f, call); isPkg && isPath(pathStr, arenaPath) &&
		name == "ReleaseBox" && len(call.Args) == 2 {
		if co := lw.carrierOf(call.Args[1]); co != nil && co.isBox {
			co.deferRelB = true
			return
		}
	}
	lw.eval(call)
}

// goStmt walks a spawned goroutine body under a goroutine boundary.
func (lw *lifeWalk) goStmt(v *ast.GoStmt) {
	if lit, ok := unparen(v.Call.Fun).(*ast.FuncLit); ok {
		for _, arg := range v.Call.Args {
			lw.eval(arg)
		}
		lw.goStack = append(lw.goStack, lit.Body)
		lw.walkLit(lit)
		lw.goStack = lw.goStack[:len(lw.goStack)-1]
		return
	}
	for _, arg := range v.Call.Args {
		d := lw.eval(arg)
		for _, co := range d.all() {
			lw.refuse(co, v, "handed to a new goroutine: escapes the spawning worker")
		}
	}
}

// walkLit walks a closure body inline, once, under the region that
// claimed it (if any).
func (lw *lifeWalk) walkLit(lit *ast.FuncLit) {
	if lit == nil || lw.walked[lit] {
		return
	}
	lw.walked[lit] = true
	isRegion := lw.regionByBody[lit.Body] != nil
	if isRegion {
		lw.regionStack = append(lw.regionStack, lit.Body)
	}
	walkStmts(lw, lit.Body.List)
	if isRegion {
		lw.regionStack = lw.regionStack[:len(lw.regionStack)-1]
	}
}

// ---------------------------------------------------------------------
// Assignment
// ---------------------------------------------------------------------

// assign is two-phase: evaluate every RHS first, then bind every LHS,
// so swaps (src, dst = dst, src) rebind correctly.
func (lw *lifeWalk) assign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		// Tuple call / comma-ok: evaluate, bind nothing trackable.
		for _, r := range as.Rhs {
			lw.eval(r)
		}
		return
	}
	descs := make([]*valDesc, len(as.Rhs))
	nils := make([]bool, len(as.Rhs))
	for i, r := range as.Rhs {
		if isNilExpr(lw.tp, r) {
			nils[i] = true
			continue
		}
		// Defer named-closure walking: a FuncLit RHS is recorded (in
		// litOf, built up front) but not walked here.
		if _, isLit := unparen(r).(*ast.FuncLit); isLit {
			continue
		}
		descs[i] = lw.eval(r)
	}
	for i, lhs := range as.Lhs {
		lw.bindLHS(lhs, descs[i], nils[i], as)
	}
}

func (lw *lifeWalk) bindLHS(lhs ast.Expr, d *valDesc, isNil bool, at ast.Node) {
	switch v := unparen(lhs).(type) {
	case *ast.Ident:
		lw.bindIdent(v, d, at)
	case *ast.IndexExpr:
		// carrier[i] = x: an element fill.
		if co := lw.carrierOf(v.X); co != nil {
			lw.useCheck(co, at)
			co.written = true
		}
		lw.eval(v.Index)
		// Storing a carrier into somebody else's element memory.
		for _, co := range d.all() {
			if lw.carrierOf(v.X) == nil {
				lw.refuse(co, at, "stored into indexed memory the pass cannot confine")
			}
		}
	case *ast.SelectorExpr:
		lw.bindField(v, d, isNil, at)
	case *ast.StarExpr:
		for _, co := range d.all() {
			lw.refuse(co, at, "stored through a pointer the pass cannot confine")
		}
	}
}

// bindIdent binds a value to a variable, refusing bindings that move a
// checkout out of the scope that owns it.
func (lw *lifeWalk) bindIdent(id *ast.Ident, d *valDesc, at ast.Node) {
	if id.Name == "_" {
		return
	}
	obj := lw.tp.info.Defs[id]
	if obj == nil {
		obj = lw.tp.info.Uses[id]
	}
	if obj == nil {
		return
	}
	// Rebinding a variable kills its old alias.
	delete(lw.carriers, obj)
	delete(lw.holders, obj)
	if d == nil {
		return
	}
	if d.mark != nil {
		lw.marks[obj] = d.mark
		return
	}
	if d.ar != nil {
		lw.arenas[obj] = d.ar
		return
	}
	cos := d.all()
	if len(cos) == 0 {
		return
	}
	// Escape checks: binding to a package-level variable, or to a
	// variable declared outside the region/goroutine that owns the
	// checkout, outlives the checkout.
	pkgLevel := obj.Parent() == lw.tp.tpkg.Scope()
	for _, co := range cos {
		switch {
		case pkgLevel:
			lw.refuse(co, id, "stored into package-level "+id.Name+": outlives every region")
		case co.regionBody != nil && !within(obj.Pos(), co.regionBody):
			lw.refuse(co, id, "escapes its region: stored into "+id.Name+" declared outside the region body")
		case co.goBody != nil && !within(obj.Pos(), co.goBody):
			lw.refuse(co, id, "escapes its goroutine: stored into "+id.Name+" declared outside the worker goroutine")
		}
	}
	if d.co != nil {
		d.co.bindName(id.Name)
		lw.carriers[obj] = d.co
		if len(d.held) > 0 {
			lw.holders[obj] = d.held
		}
		return
	}
	lw.holders[obj] = d.held
}

// bindField handles x.f = v: box transit stores, box-field handoffs,
// clears, and refused escapes.
func (lw *lifeWalk) bindField(sel *ast.SelectorExpr, d *valDesc, isNil bool, at ast.Node) {
	base := unparen(sel.X)
	baseCo := lw.carrierOf(base)
	field := sel.Sel.Name

	if isNil {
		if baseCo != nil && baseCo.isBox {
			delete(baseCo.fields, field)
		}
		return
	}
	cos := d.all()
	if len(cos) == 0 {
		return
	}
	// The base's type decides the store's fate.
	tn := boxTypeName(lw.tp.typeOf(base))
	for _, co := range cos {
		switch {
		case baseCo != nil && baseCo.isBox:
			// Transit through a local box: must be cleared before the
			// box goes back through ReleaseBox.
			if baseCo.fields == nil {
				baseCo.fields = map[string]*checkout{}
			}
			baseCo.fields[field] = co
			co.bindName(tn + "." + field)
		case tn != "" && lw.l.boxTypes[tn]:
			// A box the caller owns (box-typed parameter): the handoff
			// is worker-confined iff the module provably clears the
			// field before the box is reused.
			if lw.l.boxCleared[tn+"."+field] {
				if co.workerConf == "" {
					co.workerConf = "handed off via " + tn + "." + field + ", cleared before box reuse"
				}
				co.bindName(tn + "." + field)
			} else {
				lw.refuse(co, at, "stored into "+tn+"."+field+", never cleared before the box is reused")
			}
		default:
			lw.refuse(co, at, "stored into a field of "+types.ExprString(base)+": the pass cannot confine the target")
		}
	}
}

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

// carrierOf resolves an expression to the checkout it aliases, if the
// walk tracks one: a bound ident, a reslice of one, or a transit box
// field.
func (lw *lifeWalk) carrierOf(e ast.Expr) *checkout {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj := lw.tp.info.Uses[v]; obj != nil {
			return lw.carriers[obj]
		}
	case *ast.SliceExpr:
		return lw.carrierOf(v.X)
	case *ast.SelectorExpr:
		if base := lw.carrierOf(v.X); base != nil && base.isBox {
			return base.fields[v.Sel.Name]
		}
	}
	return nil
}

// markOf resolves a Release argument to its mark.
func (lw *lifeWalk) markOf(e ast.Expr) *markRec {
	if id, ok := unparen(e).(*ast.Ident); ok {
		if obj := lw.tp.info.Uses[id]; obj != nil {
			return lw.marks[obj]
		}
	}
	return nil
}

// useCheck fires on any use of a checkout: use-after-release and
// cross-goroutine use.
func (lw *lifeWalk) useCheck(co *checkout, at ast.Node) {
	if co == nil {
		return
	}
	if co.released {
		lw.refuse(co, at, "used after "+co.releasedBy+": the memory has been reclaimed")
		return
	}
	if co.goBody != lw.curGo() {
		lw.refuse(co, at, "used on a different worker goroutine than the one that owns it")
	}
}

// readCheck is useCheck plus the AllocUninit read-before-write
// subrule, for element reads.
func (lw *lifeWalk) readCheck(co *checkout, at ast.Node) {
	if co == nil {
		return
	}
	lw.useCheck(co, at)
	if co.class != LifeRefused && co.uninit && !co.written {
		lw.refuse(co, at, "read before first write: AllocUninit memory holds garbage from earlier generations")
	}
}

// eval evaluates an expression for its lifetime effects and returns
// what it aliases.
func (lw *lifeWalk) eval(e ast.Expr) *valDesc {
	switch v := unparen(e).(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := lw.tp.info.Uses[v]
		if obj == nil {
			return nil
		}
		if d := lw.evalQuiet(v); d != nil {
			lw.useCheck(d.co, v) // mentioning a released carrier is already a use
			return d
		}
		if mr := lw.marks[obj]; mr != nil {
			return &valDesc{mark: mr}
		}
		if ar := lw.arenas[obj]; ar != nil {
			return &valDesc{ar: ar}
		}
		return nil
	case *ast.CallExpr:
		return lw.call(v)
	case *ast.SliceExpr:
		lw.eval(v.Low)
		lw.eval(v.High)
		lw.eval(v.Max)
		return lw.eval(v.X) // slicing aliases; neutral for uninit
	case *ast.IndexExpr:
		d := lw.eval(v.X)
		lw.eval(v.Index)
		if d != nil && d.co != nil {
			lw.readCheck(d.co, v)
			return nil // an element value, not the carrier
		}
		return nil
	case *ast.IndexListExpr:
		return lw.eval(v.X)
	case *ast.SelectorExpr:
		if co := lw.carrierOf(v); co != nil {
			return &valDesc{co: co}
		}
		lw.eval(v.X)
		return nil
	case *ast.UnaryExpr:
		return lw.eval(v.X) // &composite passes holders through
	case *ast.StarExpr:
		lw.eval(v.X)
		return nil
	case *ast.BinaryExpr:
		lw.eval(v.X)
		lw.eval(v.Y)
		return nil
	case *ast.CompositeLit:
		var held []*checkout
		for _, elt := range v.Elts {
			ex := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				ex = kv.Value
			}
			d := lw.eval(ex)
			held = append(held, d.all()...)
		}
		if len(held) > 0 {
			return &valDesc{held: held}
		}
		return nil
	case *ast.TypeAssertExpr:
		return lw.eval(v.X)
	case *ast.FuncLit:
		// Deferred: walked when handed to a call or invoked.
		return nil
	}
	return nil
}

func (lw *lifeWalk) curGo() *ast.BlockStmt {
	if len(lw.goStack) > 0 {
		return lw.goStack[len(lw.goStack)-1]
	}
	return nil
}

// ---------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------

// call classifies one call's lifetime effects: the arena API itself,
// builtins, substrate contracts, summarized in-module helpers, and
// dynamic callees.
func (lw *lifeWalk) call(call *ast.CallExpr) *valDesc {
	// Arena package API.
	if pathStr, name, isPkg := callTarget(lw.f, call); isPkg && isPath(pathStr, arenaPath) {
		return lw.arenaCall(call, name)
	}
	// Arena methods: Mark / Release / Reset.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isNamed(lw.tp.typeOf(sel.X), arenaPath, "Arena") {
		return lw.arenaMethod(call, sel)
	}
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := lw.tp.info.Uses[id].(*types.Builtin); isB {
			return lw.builtin(call, id.Name)
		}
	}

	c := resolveCall(lw.tp, call, nil)
	fn, delegated := c.fn, c.delegated

	// Walk closure arguments at the call (first reference), under the
	// region the call creates if this argument is its body.
	for _, arg := range call.Args {
		if lit := lw.resolveLitArg(arg); lit != nil {
			lw.walkLit(lit)
		}
	}

	// Receiver + arguments that alias or hold checkouts, each with the
	// callee parameter position it lands in.
	type carg struct {
		expr ast.Expr
		d    *valDesc
		pos  int
	}
	var cargs []carg
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	sel, bySel := unparen(call.Fun).(*ast.SelectorExpr)
	if bySel {
		if d := lw.evalQuiet(sel.X); d != nil && len(d.all()) > 0 {
			cargs = append(cargs, carg{sel.X, d, recvIdx})
		}
	}
	for i, arg := range call.Args {
		if lw.resolveLitArg(arg) != nil {
			continue
		}
		if d := lw.eval(arg); d != nil && len(d.all()) > 0 {
			cargs = append(cargs, carg{arg, d, argPosition(sig, i)})
		}
	}
	var named *ast.FuncLit // the local closure a delegated call invokes by name
	id, byName := unparen(call.Fun).(*ast.Ident)
	if byName && delegated {
		if obj := lw.tp.info.Uses[id]; obj != nil {
			named = lw.ff.litOf(obj)
		}
	}
	if len(cargs) == 0 {
		lw.walkLit(named) // direct invocation of a named closure with no tracked args
		return nil
	}

	each := func(visit func(co *checkout, ca carg)) {
		for _, ca := range cargs {
			for _, co := range ca.d.all() {
				visit(co, ca)
			}
		}
	}
	// eff is the callee's retention verdict per argument; a callee that
	// retains nothing uses the memory for the duration of the call
	// (filling out-params) and lets go.
	var eff *writeEffect
	switch {
	case fn != nil && lw.l.a.inModule(fn) && !isSubstrate(fn):
		eff = lw.l.effectOf(fn) // in-module helper: the memoized callee summary
	case fn != nil:
		// Substrate contract: core/sched/mq/specfor/arena primitives are
		// documented non-retaining. Outside the module (stdlib) nothing
		// knows of arenas: use without retention.
	case !delegated:
	case bySel && lifeMethodContracts[sel.Sel.Name]:
		// A named out-param contract (RowInto, WRow) on an interface
		// callee fills and aliases.
	case named != nil:
		lw.walkLit(named) // a named closure is walked inline
	case byName:
		each(func(co *checkout, _ carg) {
			lw.refuse(co, call, "handed to dynamic callee "+id.Name+": the pass cannot see where it goes")
		})
		return nil
	default:
		each(func(co *checkout, _ carg) {
			lw.refuse(co, call, "handed to a dynamic callee the pass cannot see through")
		})
		return nil
	}
	each(func(co *checkout, ca carg) {
		if why := eff.kept(ca.pos); why != "" {
			lw.refuse(co, ca.expr, "retained by "+fn.Name()+": "+why)
		} else {
			fillCheckout(co)
		}
	})
	// A slice-returning call on a carrier argument returns an alias of
	// it (EnsureLen, RowInto).
	if t := lw.tp.typeOf(call); t != nil {
		if _, isSlice := t.Underlying().(*types.Slice); isSlice {
			for _, ca := range cargs {
				if ca.d.co != nil {
					return &valDesc{co: ca.d.co}
				}
			}
		}
	}
	return nil
}

// fillCheckout marks a checkout written by a call, including the
// checkouts in transit through a box's fields: handing the box to a
// primitive (ForBody(0, n, 1, b)) is what fills them.
func fillCheckout(co *checkout) {
	co.written = true
	for _, h := range co.fields {
		h.written = true
	}
}

// evalQuiet resolves an expression's descriptor without firing read
// events (used for method receivers, which are handled as call args).
func (lw *lifeWalk) evalQuiet(e ast.Expr) *valDesc {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj := lw.tp.info.Uses[v]; obj != nil {
			if co := lw.carriers[obj]; co != nil {
				return &valDesc{co: co, held: lw.holders[obj]}
			}
			if hs := lw.holders[obj]; hs != nil {
				return &valDesc{held: hs}
			}
		}
	case *ast.SliceExpr:
		return lw.evalQuiet(v.X)
	}
	return nil
}

// resolveLitArg resolves a call argument to a closure literal (inline
// or by name) so its body can be walked at this reference.
func (lw *lifeWalk) resolveLitArg(arg ast.Expr) *ast.FuncLit {
	switch v := unparen(arg).(type) {
	case *ast.FuncLit:
		return v
	case *ast.Ident:
		if obj := lw.tp.info.Uses[v]; obj != nil {
			return lw.ff.litOf(obj)
		}
	}
	return nil
}

// arenaCall handles the arena package-level API.
func (lw *lifeWalk) arenaCall(call *ast.CallExpr, name string) *valDesc {
	switch name {
	case "Alloc", "AllocUninit":
		if len(call.Args) < 1 {
			return nil
		}
		ar := lw.arenaOf(call.Args[0])
		lw.eval(call.Args[1])
		co := lw.newCheckout(call, name, ar)
		co.uninit = name == "AllocUninit"
		co.written = name == "Alloc" // Alloc zeroes
		if n := len(ar.stack); n > 0 {
			co.mark = ar.stack[n-1]
		}
		return &valDesc{co: co}
	case "AcquireBox":
		co := lw.newCheckout(call, name, &arenaRec{})
		co.isBox, co.written = true, true
		co.boxType = boxTypeName(lw.tp.typeOf(call))
		return &valDesc{co: co}
	case "ReleaseBox":
		if len(call.Args) != 2 {
			return nil
		}
		co := lw.carrierOf(call.Args[1])
		if co == nil || !co.isBox {
			return nil
		}
		for f, held := range co.fields {
			if held.class == "" && !held.released {
				lw.refuse(held, call, "still reachable through "+co.boxType+"."+f+" when the box was released for reuse")
			}
		}
		co.released, co.releasedBy = true, "ReleaseBox"
		settle(co, LifeReleased, "ReleaseBox")
		return nil
	case "Of":
		return &valDesc{ar: &arenaRec{}}
	}
	for _, a := range call.Args {
		lw.eval(a)
	}
	return nil
}

// newCheckout starts tracking one checkout, owned by the innermost
// region and goroutine being walked.
func (lw *lifeWalk) newCheckout(call *ast.CallExpr, origin string, ar *arenaRec) *checkout {
	co := &checkout{origin: origin, node: call, expr: "_", ar: ar, goBody: lw.curGo()}
	if n := len(lw.regionStack); n > 0 {
		co.regionBody = lw.regionStack[n-1]
	}
	lw.cos = append(lw.cos, co)
	return co
}

// arenaMethod handles Mark / Release / Reset on an arena value.
func (lw *lifeWalk) arenaMethod(call *ast.CallExpr, sel *ast.SelectorExpr) *valDesc {
	ar := lw.arenaOf(sel.X)
	switch sel.Sel.Name {
	case "Mark":
		mr := &markRec{ar: ar, gen: ar.gen}
		ar.stack = append(ar.stack, mr)
		lw.markCount++
		return &valDesc{mark: mr}
	case "Release":
		if len(call.Args) != 1 {
			return nil
		}
		mr := lw.markOf(call.Args[0])
		if mr == nil {
			return nil
		}
		name := types.ExprString(call.Args[0])
		if mr.gen != mr.ar.gen {
			lw.violation(call, name, "Release of a stale mark: the arena was Reset while the checkout was live")
			return nil
		}
		if n := len(mr.ar.stack); n == 0 || mr.ar.stack[n-1] != mr {
			lw.violation(call, name, "mark released out of LIFO order: an inner mark is still live")
			return nil
		}
		mr.ar.stack = mr.ar.stack[:len(mr.ar.stack)-1]
		mr.released = true
		for _, co := range lw.cos {
			if co.mark == mr && !co.released {
				co.released, co.releasedBy = true, "Release"
				settle(co, LifeReleased, "")
			}
		}
		return nil
	case "Reset":
		ar.gen++
		for _, co := range lw.cos {
			if co.ar == ar && !co.released {
				co.released, co.releasedBy = true, "Reset"
				settle(co, LifeReleased, "reclaimed by Reset")
			}
		}
		return nil
	}
	return nil
}

// arenaOf resolves an arena expression to its tracked identity,
// synthesizing one for untracked shapes (parameters, fields).
func (lw *lifeWalk) arenaOf(e ast.Expr) *arenaRec {
	if id, ok := unparen(e).(*ast.Ident); ok {
		if obj := lw.tp.info.Uses[id]; obj != nil {
			if ar := lw.arenas[obj]; ar != nil {
				return ar
			}
			ar := &arenaRec{}
			lw.arenas[obj] = ar
			return ar
		}
	}
	if d := lw.eval(e); d != nil && d.ar != nil {
		return d.ar
	}
	return &arenaRec{}
}

// builtin handles the builtins that touch checkout memory.
func (lw *lifeWalk) builtin(call *ast.CallExpr, name string) *valDesc {
	switch name {
	case "clear":
		if len(call.Args) == 1 {
			if co := lw.carrierOf(call.Args[0]); co != nil {
				co.written = true
				return nil
			}
		}
	case "copy":
		if len(call.Args) == 2 {
			if src := lw.carrierOf(call.Args[1]); src != nil {
				lw.readCheck(src, call.Args[1])
			}
			if dst := lw.carrierOf(call.Args[0]); dst != nil {
				dst.written = true
			}
			return nil
		}
	case "append":
		if len(call.Args) >= 1 {
			if co := lw.carrierOf(call.Args[0]); co != nil {
				lw.readCheck(co, call.Args[0])
				for _, a := range call.Args[1:] {
					lw.eval(a)
				}
				return &valDesc{co: co}
			}
		}
	case "len", "cap":
		return nil // neutral: no element access
	}
	for _, a := range call.Args {
		lw.eval(a)
	}
	return nil
}

// ---------------------------------------------------------------------
// Finalize
// ---------------------------------------------------------------------

// finalize applies deferred releases and settles every checkout that
// reached the end of the function unclassified.
func (lw *lifeWalk) finalize() {
	for _, co := range lw.cos {
		if co.class == "" && co.mark != nil && co.mark.deferRel && !co.released {
			co.released, co.releasedBy = true, "Release"
			settle(co, LifeReleased, "deferred: covers panic edges")
		}
		if co.class == "" && co.isBox && co.deferRelB && !co.released {
			co.released, co.releasedBy = true, "ReleaseBox"
			settle(co, LifeReleased, "deferred ReleaseBox: covers panic edges")
		}
	}
	for _, co := range lw.cos {
		if co.class != "" {
			lw.emit(co)
			continue
		}
		switch {
		case co.workerConf != "":
			co.class, co.detail = LifeWorkerConfined, co.workerConf
		case co.regionBody != nil:
			co.class, co.detail = LifeRegionConfined, "never leaves the region body"
		case co.mark != nil:
			lw.refuse(co, co.node, "covering mark is never released on some path")
		default:
			lw.refuse(co, co.node, "checkout is neither released nor confined to a region")
		}
		lw.emit(co)
	}
}

func (lw *lifeWalk) emit(co *checkout) {
	lw.sites = append(lw.sites, LifeSite{
		sitePos: lw.l.a.sitePos(lw.f, co.node),
		Func:    lw.fd.Name.Name, Origin: co.origin, Expr: co.expr,
		Class: co.class, Detail: co.detail, Reason: co.reason,
		Marker: co.marker,
	})
}
