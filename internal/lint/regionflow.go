package lint

// The lifetimes flow walk: a per-function, statement-ordered dataflow
// over arena checkouts. Lexical order approximates dominance (the same
// bargain the certify and races passes strike): a statement is assumed
// to execute after the one above it, loops execute their body once,
// and both branches of an if-else start from the bindings before it and
// merge what they bind (branches). The walk is
// refusal-biased — anything it cannot prove confined is refused with a
// proof-chain reason — so the approximation errs toward noise, never
// toward silence.
//
// Closure bodies are walked inline at their FIRST reference (call
// argument or direct call), not at their definition: a named closure
// like isort's syncScatter reads memory a helper call fills between
// the definition and the first use, and walking at the definition
// would refuse a read that can never happen uninitialized.
//
// The walk is the third sink of the shared write decisions (writes.go):
// what a call writes and keeps comes from callWrites and handOff,
// whether a store keeps what it stores from keeps, in the function's
// own frame. It keeps only what is about time: marks, Release/Reset,
// use after release, AllocUninit reads, and the region and goroutine
// that own each checkout.

import (
	"cmp"
	"go/ast"
	"go/types"
	"maps"
)

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
	rooting // the function's frame, for the store rule
	fd      *ast.FuncDecl

	regionByBody map[*ast.BlockStmt]*raceRegion

	walked    map[*ast.FuncLit]bool
	deferring bool // walking a deferred call: its releases run at return

	vals map[types.Object]*valDesc // what each variable carries

	regionStack []*ast.BlockStmt
	goStack     []*ast.BlockStmt

	cos       []*checkout
	sites     []LifeSite
	markCount int
}

func newLifeWalk(l *typeLoader, ff *funcFacts, f *fileInfo, regions []*raceRegion) *lifeWalk {
	lw := &lifeWalk{
		rooting: rooting{l: l, tp: ff.tp, f: f, ff: ff,
			frame: funcFrame(ff.tp.paramPositions(ff.fd.Recv, ff.fd.Type.Params))},
		fd:           ff.fd,
		regionByBody: map[*ast.BlockStmt]*raceRegion{},
		walked:       map[*ast.FuncLit]bool{},
		vals:         map[types.Object]*valDesc{},
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
		for _, spec := range v.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for i, name := range vs.Names[:min(len(vs.Names), len(vs.Values))] {
					lw.bindIdent(name, lw.eval(vs.Values[i]))
				}
			}
		}
	case *ast.RangeStmt:
		d := lw.eval(v.X)
		if d != nil && d.co != nil && v.Value != nil {
			lw.readCheck(d.co, v.X) // range-with-value reads elements
		}
		for _, x := range []ast.Expr{v.Key, v.Value} {
			lw.bindLHS(x, lw.element(x, d), v) // nil binds nothing
		}
	case *ast.SendStmt:
		lw.eval(v.Chan)
		lw.escape(v.Value, v, "sent on a channel: the receiver outlives the checkout")
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			lw.escape(res, v, "returned from "+lw.fd.Name.Name+": the caller outlives the checkout")
		}
	case *ast.DeferStmt:
		// A deferred Release/ReleaseBox covers panic edges, so it
		// proves release on all paths.
		deferring := lw.deferring
		lw.deferring = true
		lw.eval(v.Call)
		lw.deferring = deferring
	case *ast.GoStmt:
		lw.goStmt(v)
	case *ast.IncDecStmt:
		lw.eval(v.X) // x[i]++ reads, then writes the element
		lw.bindLHS(v.X, nil, v)
	}
}

// escape refuses every checkout e carries: at n it leaves for where the
// walk cannot follow it.
func (lw *lifeWalk) escape(e ast.Expr, n ast.Node, why string) {
	for _, co := range lw.eval(e).all() {
		lw.refuse(co, n, why)
	}
}

// goStmt walks a spawned goroutine body under a goroutine boundary,
// its parameters bound to the arguments like an invoked literal's.
func (lw *lifeWalk) goStmt(v *ast.GoStmt) {
	lit, ok := unparen(v.Call.Fun).(*ast.FuncLit)
	if !ok {
		for _, arg := range v.Call.Args {
			lw.escape(arg, v, "handed to a new goroutine: escapes the spawning worker")
		}
		return
	}
	descs := map[ast.Expr]*valDesc{}
	for _, arg := range v.Call.Args {
		descs[arg] = lw.eval(arg)
	}
	lw.goStack = append(lw.goStack, lit.Body)
	lw.invokeLit(lit, v.Call, descs)
	lw.goStack = lw.goStack[:len(lw.goStack)-1]
}

// branches walks an if statement's two branches from the same bindings
// and keeps, where they merge, what either bound: a checkout one branch
// takes is the one a release after the merge returns, whatever the
// other branch binds in its place.
func (lw *lifeWalk) branches(then *ast.BlockStmt, els ast.Stmt) {
	before := maps.Clone(lw.vals)
	walkStmts(lw, then.List)
	after := lw.vals
	lw.vals = before
	walkStmt(lw, els)
	for obj, a := range after {
		b := lw.vals[obj]
		if a == b {
			continue
		}
		d := *a
		if b != nil {
			d = valDesc{co: cmp.Or(b.co, a.co), mark: cmp.Or(b.mark, a.mark), ar: cmp.Or(b.ar, a.ar)}
			for _, co := range append(a.all(), b.all()...) {
				if co != d.co {
					d.held = append(d.held, co)
				}
			}
		}
		lw.vals[obj] = &d
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
// so swaps (src, dst = dst, src) rebind correctly. A comma-ok form
// binds its value to the first variable, a tuple call what it returns.
func (lw *lifeWalk) assign(as *ast.AssignStmt) {
	descs := make([]*valDesc, len(as.Lhs))
	for i, r := range as.Rhs {
		descs[i] = lw.eval(r)
	}
	for i, lhs := range as.Lhs {
		lw.bindLHS(lhs, descs[i], as)
	}
}

// bindLHS binds one assignment target: a variable, an element fill of
// a checkout, a transit through a local box's field, or a store.
func (lw *lifeWalk) bindLHS(lhs ast.Expr, d *valDesc, at ast.Node) {
	switch v := unparen(lhs).(type) {
	case *ast.Ident:
		lw.bindIdent(v, d)
		return
	case *ast.IndexExpr:
		// carrier[i] = x: an element fill.
		if co := lw.carrierOf(v.X); co != nil {
			lw.useCheck(co, at)
			co.written = true
		}
		lw.eval(v.Index)
	case *ast.SelectorExpr:
		// Transit through a local box: must be cleared (overwritten)
		// before the box goes back through ReleaseBox.
		if box := lw.carrierOf(v.X); box != nil && box.isBox {
			delete(box.fields, v.Sel.Name)
			for _, co := range d.all() {
				if box.fields == nil {
					box.fields = map[string]*checkout{}
				}
				box.fields[v.Sel.Name] = co
				co.bindName(boxTypeName(lw.tp.typeOf(v.X)) + "." + v.Sel.Name)
			}
			return
		}
	}
	if base, steps, ok := peelTarget(lhs); ok {
		lw.store(base, steps, d.all(), at)
	}
}

// bindIdent binds a value to a variable: rebinding kills its old alias.
func (lw *lifeWalk) bindIdent(id *ast.Ident, d *valDesc) {
	obj := lw.tp.objOf(id)
	if id.Name == "_" || obj == nil {
		return
	}
	delete(lw.vals, obj)
	if d == nil {
		return
	}
	lw.store(id, nil, d.all(), id)
	if d.co != nil {
		d.co.bindName(id.Name)
	}
	cp := *d
	lw.vals[obj] = &cp
}

// store judges checkouts stored through the access path steps from
// base (none: into base itself). A store the one store rule (writes.go
// keeps) says keeps them is refused, and so is a store into a variable
// declared outside the region or goroutine that owns them. A store
// through a cleared box field hands them off worker-confined;
// otherwise base holds them, and its own escape is judged where it
// happens.
func (lw *lifeWalk) store(base *ast.Ident, steps []targetStep, cos []*checkout, at ast.Node) {
	if len(cos) == 0 {
		return
	}
	why, transit := lw.keeps(base, steps, nil)
	if why != "" && len(steps) == 0 {
		why += ": outlives every region" // the frame owns every variable but package-level ones
	}
	obj := lw.tp.objOf(base)
	for _, co := range cos {
		switch {
		case why != "":
			lw.refuse(co, at, why)
		case transit != "":
			if co.workerConf == "" {
				co.workerConf = "handed off via " + transit + ", cleared before box reuse"
			}
			co.bindName(transit)
		case co.regionBody != nil && !within(obj.Pos(), co.regionBody):
			lw.refuse(co, at, "escapes its region: stored into "+base.Name+" declared outside the region body")
		case co.goBody != nil && !within(obj.Pos(), co.goBody):
			lw.refuse(co, at, "escapes its goroutine: stored into "+base.Name+" declared outside the worker goroutine")
		case len(steps) > 0:
			d := lw.vals[obj]
			if d == nil {
				d = &valDesc{}
				lw.vals[obj] = d
			}
			d.held = append(d.held[:len(d.held):len(d.held)], co)
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
	if sel, ok := unparen(e).(*ast.SelectorExpr); ok {
		if base := lw.carrierOf(sel.X); base != nil && base.isBox {
			return base.fields[sel.Sel.Name]
		}
	} else if d := lw.evalQuiet(e); d != nil {
		return d.co
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
	case *ast.Ident:
		d := lw.evalQuiet(v)
		if d != nil {
			lw.useCheck(d.co, v) // mentioning a released carrier is already a use
		}
		return d
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
		}
		return lw.element(v, d)
	case *ast.SelectorExpr:
		if co := lw.carrierOf(v); co != nil {
			return &valDesc{co: co}
		}
		return lw.element(v, lw.eval(v.X))
	case *ast.UnaryExpr:
		return lw.eval(v.X) // &composite passes holders through
	case *ast.StarExpr:
		return lw.element(v, lw.eval(v.X))
	case *ast.BinaryExpr:
		lw.eval(v.X)
		lw.eval(v.Y)
		return nil
	case *ast.CompositeLit:
		d := &valDesc{}
		for _, elt := range v.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			d.held = append(d.held, lw.eval(elt).all()...)
		}
		return d
	case *ast.TypeAssertExpr:
		return lw.eval(v.X)
	}
	return nil // a literal is walked where it is invoked or handed on
}

// element is what a value e read out of memory that d describes
// carries: an element, field or referent of a holder carries what the
// holder holds, when e's type can carry a reference at all.
func (lw *lifeWalk) element(e ast.Expr, d *valDesc) *valDesc {
	if d == nil || len(d.held) == 0 || !holdsRef(lw.tp.info.TypeOf(e)) { // TypeOf: e may define a range variable
		return nil
	}
	return &valDesc{held: d.held}
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

// call tracks one call: the arena API itself, closures walked inline
// at their first reference, and every other answer from the shared
// dispatcher (writes.go callWrites): a by-reference argument is filled,
// or refused when the callee keeps it; the values a copy or append
// stores go through the store rule; a call chosen at run time goes
// through the hand-off rule.
func (lw *lifeWalk) call(call *ast.CallExpr) *valDesc {
	// Arena package API.
	if name, n := arenaCheckout(lw.f, call); name != "" {
		return lw.checkout(call, name, n)
	}
	if pathStr, name, isPkg := callTarget(lw.f, call); isPkg && isPath(pathStr, arenaPath) {
		return lw.arenaCall(call, name)
	}
	// Arena methods: Mark / Release / Reset.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isNamed(lw.tp.typeOf(sel.X), arenaPath, "Arena") {
		return lw.arenaMethod(call, sel)
	}
	// What the receiver and each argument carry. A closure argument is
	// walked here, its first reference, under the region the call
	// creates if it is the region's body.
	var recv ast.Expr
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv = sel.X
	}
	inputs := append([]ast.Expr{recv}, call.Args...)
	descs := map[ast.Expr]*valDesc{recv: lw.evalQuiet(recv)} // the receiver is used, not read
	for _, arg := range call.Args {
		if lit := lw.resolveLitArg(arg); lit != nil {
			lw.walkLit(lit)
		} else {
			descs[arg] = lw.eval(arg)
		}
	}
	// hand fills what e carries (and what transits through a box it
	// carries), or refuses it at n when why is set.
	hand := func(e ast.Expr, why string, n ast.Node) {
		for _, co := range descs[e].all() {
			if why != "" {
				lw.refuse(co, n, why)
				continue
			}
			co.written = true
			for _, h := range co.fields {
				h.written = true
			}
		}
	}
	delegated := lw.l.callWrites(lw.tp, lw.f, lw.ff, call, func(ev writeEvent) bool {
		switch {
		case ev.op == "append": // writes past its destination's length, filling none of it
		case ev.kept != "":
			hand(ev.target, "retained by "+ev.via.Name()+": "+ev.kept, ev.target)
		default:
			hand(ev.target, "", ev.target)
		}
		if ev.op == "copy" { // copy reads its source's elements
			lw.readCheck(lw.carrierOf(call.Args[1]), call.Args[1])
		}
		if base, steps, ok := peelElem(ev.target); ok {
			for _, v := range ev.stored {
				lw.store(base, steps, descs[v].all(), call)
			}
		}
		return true
	})
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		lw.invokeLit(lit, call, descs) // its body is walked with its parameters bound
		return nil
	}
	if delegated {
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			lw.walkLit(lw.ff.litOf(lw.tp.objOf(id))) // a local closure invoked by name
		}
		why := handOff(lw.tp, lw.ff, call)
		if why != "" {
			why += ": the pass cannot see where it goes"
		}
		for _, e := range inputs {
			hand(e, why, call)
		}
	}
	// append(x, ...) and a conversion T(x) share x's memory, and append
	// carries what it stores.
	if operand, _ := lw.tp.memoryOf(call); operand != nil {
		res := valDesc{}
		if d := descs[operand]; d != nil {
			res = *d
		}
		for _, v := range storedRefs(lw.tp, call) {
			res.held = append(res.held[:len(res.held):len(res.held)], descs[v].all()...)
		}
		return &res
	}
	// A slice-returning call on a carrier argument returns an alias of
	// it (EnsureLen, RowInto).
	if t := lw.tp.typeOf(call); t != nil {
		if _, isSlice := t.Underlying().(*types.Slice); isSlice {
			for _, e := range inputs {
				if d := descs[e]; d != nil && d.co != nil {
					return &valDesc{co: d.co}
				}
			}
		}
	}
	return nil
}

// invokeLit walks a literal invoked in place with each parameter bound
// to what its argument carries (a variadic parameter holds what all its
// arguments carry), so the body judges them like the caller's values.
func (lw *lifeWalk) invokeLit(lit *ast.FuncLit, call *ast.CallExpr, descs map[ast.Expr]*valDesc) {
	var names []*ast.Ident
	for _, field := range lit.Type.Params.List {
		names = append(names, field.Names...)
	}
	variadic := lw.tp.typeOf(lit).(*types.Signature).Variadic() && !call.Ellipsis.IsValid()
	for i, name := range names {
		if !variadic || i < len(names)-1 {
			lw.bindIdent(name, descs[call.Args[i]])
			continue
		}
		d := &valDesc{}
		for _, arg := range call.Args[i:] {
			d.held = append(d.held, descs[arg].all()...)
		}
		lw.bindIdent(name, d)
	}
	lw.walkLit(lit)
}

// evalQuiet resolves an expression's descriptor without firing read
// events (used for method receivers, which are handled as call args).
func (lw *lifeWalk) evalQuiet(e ast.Expr) *valDesc {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return lw.vals[lw.tp.info.Uses[v]]
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

// arenaCall handles the rest of the arena package-level API.
func (lw *lifeWalk) arenaCall(call *ast.CallExpr, name string) *valDesc {
	switch name {
	case "ReleaseBox":
		if len(call.Args) != 2 {
			return nil
		}
		co := lw.carrierOf(call.Args[1])
		if co == nil || !co.isBox {
			return nil
		}
		if lw.deferring {
			co.deferRelB = true
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

// checkout starts tracking one checkout (arenaCheckout: n is the
// length of a slice form, nil for a box), owned by the innermost region
// and goroutine being walked.
func (lw *lifeWalk) checkout(call *ast.CallExpr, origin string, n ast.Expr) *valDesc {
	co := &checkout{origin: origin, node: call, expr: "_", ar: &arenaRec{}, goBody: lw.curGo()}
	if n == nil {
		co.isBox, co.written = true, true
		co.boxType = boxTypeName(lw.tp.typeOf(call))
	} else {
		co.ar = lw.arenaOf(call.Args[0])
		lw.eval(n)
		co.uninit = origin == "AllocUninit"
		co.written = origin == "Alloc" // Alloc zeroes
		if k := len(co.ar.stack); k > 0 {
			co.mark = co.ar.stack[k-1]
		}
	}
	if k := len(lw.regionStack); k > 0 {
		co.regionBody = lw.regionStack[k-1]
	}
	lw.cos = append(lw.cos, co)
	return &valDesc{co: co}
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
		d := lw.evalQuiet(call.Args[0])
		if d == nil || d.mark == nil {
			return nil
		}
		mr := d.mark
		if lw.deferring {
			mr.deferRel = true
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
	if d := lw.eval(e); d != nil && d.ar != nil {
		return d.ar
	}
	ar := &arenaRec{}
	if id, ok := unparen(e).(*ast.Ident); ok && lw.tp.info.Uses[id] != nil {
		lw.vals[lw.tp.info.Uses[id]] = &valDesc{ar: ar}
	}
	return ar
}

// ---------------------------------------------------------------------
// Finalize
// ---------------------------------------------------------------------

// finalize applies deferred releases and settles every checkout that
// reached the end of the function unclassified.
func (lw *lifeWalk) finalize() {
	for _, co := range lw.cos {
		switch {
		case co.class != "":
		case co.mark != nil && co.mark.deferRel:
			settle(co, LifeReleased, "deferred: covers panic edges")
		case co.isBox && co.deferRelB:
			settle(co, LifeReleased, "deferred ReleaseBox: covers panic edges")
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
