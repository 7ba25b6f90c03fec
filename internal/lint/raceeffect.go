package lint

// Interprocedural callee summaries, shared by the races and lifetimes
// passes: when a parallel region calls an in-module function, the
// region's safety depends on what that function writes, and a checkout
// handed to it lives only as long as nothing the function does keeps
// it. effectOf summarizes a callee once, in the loader's summary table
// (core.go), from one body walk:
//
//	paramPlain   the callee performs plain writes through memory
//	             reachable from its parameters or receiver — the
//	             caller must hand it task-owned memory
//	paramAtomic  the callee writes through its parameters, but only
//	             with sync/atomic operations
//	shared       the callee writes package-level state (or something
//	             the summary cannot root) without synchronization;
//	             calling it from a region is refused outright
//	keeps        per parameter, the first store that keeps its memory
//	             past the call — the lifetimes pass's question
//
// Writes the callee makes under a held mutex, writes to memory it
// allocates itself, and atomic writes to shared state are all absent
// from the summary: they are safe regardless of the calling region.
// Function literals inside the callee are included — the dominant
// pattern here is a driver handing closures to a parallel primitive,
// and those closures' writes through the driver's parameters are
// exactly what the caller needs to know about.
//
// Retention is coarse in the safe direction. Returning a parameter is
// not retention: the caller keeps owning the memory. A parameter is
// kept when it is sent on a channel, handed to a goroutine, stored
// into a package-level variable, stored into a field of another
// parameter's memory (unless that field is nil-cleared in the same
// body, or is a box field cleared somewhere in the module — a transit,
// see prescanBoxes), handed to a dynamic callee other than an
// out-parameter contract (lifeMethodContracts) or a closure local to
// the body, or kept by an in-module callee. The substrate packages
// retain nothing by documented contract.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// writeEffect is one function's summarized write behavior. The
// position sets record which parameters the writes actually reach
// (receiver = recvIdx), so a caller handing task-owned memory at the
// written positions can pass shared read-only data everywhere else —
// the compressed-CSR encoder's shape, where encodeRow(v, row, dst)
// writes dst but only reads the shared adjacency row. A raised flag
// with an empty set means the walk saw a parameter-rooted write it
// could not attribute to a position; every position then counts as
// written, the pre-positional conservative answer.
type writeEffect struct {
	paramPlain  bool
	paramAtomic bool
	shared      string // first offending write, for the refusal message

	plainIdx  map[int]bool
	atomicIdx map[int]bool
	plainAll  bool // an unattributed plain write: every position counts
	atomicAll bool

	keeps map[int]string // position -> why the callee keeps its memory
}

// kept reports why the callee keeps the memory at position idx past
// the call, or "" when it lets go. A nil summary keeps nothing.
func (e *writeEffect) kept(idx int) string {
	if e == nil {
		return ""
	}
	return e.keeps[idx]
}

// writesPlain reports whether the callee performs plain writes through
// the parameter at position idx.
func (e *writeEffect) writesPlain(idx int) bool {
	if !e.paramPlain {
		return false
	}
	return e.plainAll || len(e.plainIdx) == 0 || e.plainIdx[idx]
}

// writesAtomic is writesPlain for sync/atomic writes.
func (e *writeEffect) writesAtomic(idx int) bool {
	if !e.paramAtomic {
		return false
	}
	return e.atomicAll || len(e.atomicIdx) == 0 || e.atomicIdx[idx]
}

// writesThrough reports whether position idx is written at all.
func (e *writeEffect) writesThrough(idx int) bool {
	return e.writesPlain(idx) || e.writesAtomic(idx)
}

// effectOf returns fn's memoized write effect. Recursive cycles
// resolve optimistically (the first activation summarizes the rest of
// the body; a cycle participant's own frame contributes nothing extra):
// every write in the cycle is still seen by the activation that is
// walking the body it sits in, so the empty answer hides nothing.
func (l *typeLoader) effectOf(fn *types.Func) *writeEffect {
	l.prescanBoxes() // retention reads the module's box clears
	return l.effects.get(fn, &writeEffect{}, func() *writeEffect { return l.computeEffect(fn) })
}

func (l *typeLoader) computeEffect(fn *types.Func) *writeEffect {
	d := l.declOf(fn)
	if d == nil || d.fd.Body == nil {
		// In-module but undeclared (assembly stub, build-tagged out):
		// refuse rather than guess.
		return &writeEffect{shared: "body of " + fn.Name() + " not available to the analysis"}
	}
	w := &effWalk{
		l: l, tp: d.tp, f: d.f, fd: d.fd,
		ff:      l.factsOf(d.tp, d.fd),
		eff:     &writeEffect{},
		params:  d.tp.paramPositions(d.fd.Recv, d.fd.Type.Params),
		cleared: map[string]bool{},
	}
	nilClears(d.tp, d.fd.Body, func(key string) { w.cleared[key] = true })
	ast.Inspect(d.fd.Body, w.visit)
	if isSubstrate(fn) {
		w.eff.keeps = nil // documented contract: primitives retain nothing
	}
	return w.eff
}

// ---------------------------------------------------------------------
// The callee body walk
// ---------------------------------------------------------------------

// effKind roots a memory access: callee-allocated, parameter-reachable,
// or package-shared. Order matters — merging takes the worst.
type effKind int

const (
	effLocal effKind = iota
	effParam
	effShared
)

type effWalk struct {
	l         *typeLoader
	tp        *typedPkg
	f         *fileInfo
	fd        *ast.FuncDecl
	eff       *writeEffect
	ff        *funcFacts                // def-use facts: every binding of every local
	params    map[types.Object]int      // param object -> position (receiver = recvIdx)
	litHanded map[types.Object]ast.Expr // region-closure handed params -> backing argument
	inRoot    map[types.Object]bool     // rootOf cycle guard (swap chains)
	locks     lockTracker               // writes under a held lock are the callee's business
	cleared   map[string]bool           // "Type.field" pairs nil-cleared in this body
	// carry widens aliasRoot while kept asks what a value may carry
	// rather than whose memory it is: an append's elements and a
	// received value's channel count too.
	carry bool
}

// sources lists every expression obj was ever bound to — its root is
// the worst root among them. ok=false marks a binding the walk cannot
// model (tuple results, comma-ok forms) or a variable never bound here
// (an unclaimed closure parameter).
func (w *effWalk) sources(obj types.Object) (srcs []ast.Expr, ok bool) {
	binds := w.ff.of(obj).binds
	for _, b := range binds {
		switch {
		case b.op == token.INC || b.op == token.DEC:
		case b.op == token.RANGE:
			// The value variable may alias elements of the ranged
			// expression; root both through it.
			srcs = append(srcs, b.rhs)
		case b.zeroValue():
			// var x T: no memory.
		case b.value() == nil:
			return nil, false
		case !b.define && selfDerived(w.tp, b.rhs, obj):
			// x = append(x, ...) and x = x[i:j] rebind x to the same
			// underlying memory: no new root.
		default:
			srcs = append(srcs, b.rhs)
		}
	}
	return srcs, len(binds) > 0
}

// selfDerived reports whether rhs is append(x, ...) or a reslice of x —
// an assignment to x that preserves x's memory root.
func selfDerived(tp *typedPkg, rhs ast.Expr, obj types.Object) bool {
	isSelf := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && (tp.info.Uses[id] == obj || tp.info.Defs[id] == obj)
	}
	switch v := unparen(rhs).(type) {
	case *ast.SliceExpr:
		return isSelf(v.X)
	case *ast.CallExpr:
		if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "append" && len(v.Args) > 0 {
			return isSelf(v.Args[0])
		}
	}
	return false
}

// visit is the single-pass effect walk. Statement order is approximate
// (ast.Inspect order is source order within a function), which is
// enough for the straight-line Lock/Unlock discipline this module uses.
func (w *effWalk) visit(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.AssignStmt:
		if v.Tok == token.DEFINE {
			return true
		}
		for _, lhs := range v.Lhs {
			w.write(lhs)
		}
		if len(v.Lhs) == len(v.Rhs) {
			for i, lhs := range v.Lhs {
				w.store(lhs, v.Rhs[i])
			}
		}
	case *ast.SendStmt:
		w.keep(v.Value, "sent on a channel")
	case *ast.IncDecStmt:
		w.write(v.X)
	case *ast.DeferStmt:
		if w.locks.op(w.tp, v.Call, true) {
			return false
		}
	case *ast.GoStmt:
		// The spawned body is walked by Inspect anyway if it is a
		// literal; a dynamic launch hides writes we cannot see.
		if _, ok := unparen(v.Call.Fun).(*ast.FuncLit); !ok {
			w.sharedAt(v, "launches a goroutine through "+types.ExprString(v.Call.Fun))
		}
		for _, a := range v.Call.Args {
			w.keep(a, "handed to a goroutine")
		}
	case *ast.CallExpr:
		return !w.call(v)
	}
	return true
}

// write classifies one assignment target in the callee.
func (w *effWalk) write(lhs ast.Expr) {
	base, steps, ok := peelTarget(lhs)
	if !ok {
		w.sharedAt(lhs, "writes through unmodeled expression "+types.ExprString(lhs))
		return
	}
	if len(steps) == 0 {
		return // writing a variable itself: callee-frame storage
	}
	obj := w.tp.objOf(base)
	if obj == nil {
		w.sharedAt(lhs, "writes through unresolved "+types.ExprString(lhs))
		return
	}
	if !crossesStorage(obj.Type(), steps) {
		return // stays inside a callee-frame variable (array/struct value)
	}
	ps := map[int]bool{}
	w.emit(w.rootOf(obj, 0, ps), lhs, false, ps)
}

// emit folds one rooted write into the summary. ps carries the
// parameter positions the write's memory can be rooted at; empty with
// kind effParam means attribution failed and every position is tainted.
func (w *effWalk) emit(kind effKind, at ast.Node, atomic bool, ps map[int]bool) {
	switch kind {
	case effLocal:
	case effParam:
		if atomic {
			w.eff.paramAtomic = true
			if len(ps) == 0 {
				w.eff.atomicAll = true
			}
			w.addIdx(&w.eff.atomicIdx, ps)
		} else if !w.locks.locked() {
			w.eff.paramPlain = true
			if len(ps) == 0 {
				w.eff.plainAll = true
			}
			w.addIdx(&w.eff.plainIdx, ps)
		}
	case effShared:
		if !atomic && !w.locks.locked() {
			w.sharedAt(at, "writes "+w.describe(at))
		}
	}
}

func (w *effWalk) addIdx(dst *map[int]bool, ps map[int]bool) {
	if len(ps) == 0 {
		return
	}
	if *dst == nil {
		*dst = map[int]bool{}
	}
	for i := range ps {
		(*dst)[i] = true
	}
}

func (w *effWalk) describe(at ast.Node) string {
	if e, ok := at.(ast.Expr); ok {
		return types.ExprString(e)
	}
	return "shared state"
}

func (w *effWalk) sharedAt(at ast.Node, what string) {
	if w.eff.shared != "" {
		return
	}
	pos := w.l.a.fset.Position(at.Pos())
	w.eff.shared = fmt.Sprintf("%s at %s:%d", what, w.f.rel, pos.Line)
}

// rootOf resolves whose memory a variable's referent is: allocated
// here, reachable from a parameter, or package-shared. A variable's
// root is the worst root over everything it was ever bound to; every
// parameter that contributes a binding is recorded in ps.
func (w *effWalk) rootOf(obj types.Object, depth int, ps map[int]bool) effKind {
	if depth > 6 || obj == nil {
		return effShared
	}
	if idx, isParam := w.params[obj]; isParam {
		if ps != nil {
			ps[idx] = true
		}
		return effParam
	}
	if w.ff.of(obj).litParam && perInvocationParam(obj.Type()) {
		// Scalar and worker-handle parameters of any closure are
		// per-invocation values wherever the closure ends up invoked.
		// Reference parameters stay conservatively shared unless a
		// region call site hands them memory (litHanded).
		return effLocal
	}
	if back, ok := w.litHanded[obj]; ok {
		return w.aliasRoot(back, depth+1, ps)
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return effShared
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return effShared // package-level variable
	}
	srcs, ok := w.sources(obj)
	if !ok {
		return effShared // untracked local (unclaimed closure param, tuple result)
	}
	if w.inRoot[obj] {
		// Binding cycle (a, b = b, a ping-pong): the cycle itself
		// introduces no memory; the true roots appear on the bindings
		// outside it, which the outer worst-of fold still visits.
		return effLocal
	}
	if w.inRoot == nil {
		w.inRoot = map[types.Object]bool{}
	}
	w.inRoot[obj] = true
	kind := effLocal // no bindings at all: the zero value
	for _, src := range srcs {
		if k := w.aliasRoot(src, depth+1, ps); k > kind {
			kind = k
		}
	}
	delete(w.inRoot, obj)
	return kind
}

// aliasRoot resolves the root of the memory an expression evaluates to.
func (w *effWalk) aliasRoot(e ast.Expr, depth int, ps map[int]bool) effKind {
	if depth > 8 {
		return effShared
	}
	e = unparen(e)
	if w.carry {
		switch v := e.(type) {
		case *ast.CallExpr:
			for _, a := range v.Args {
				w.keptAt(a, depth+1, ps)
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				w.aliasRoot(v.X, depth+1, ps)
			}
		}
	}
	if operand, fresh := w.tp.memoryOf(e); fresh {
		return effLocal
	} else if operand != nil {
		return w.aliasRoot(operand, depth+1, ps)
	}
	if x := innerOperand(e); x != nil {
		return w.aliasRoot(x, depth+1, ps)
	}
	switch v := e.(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return effLocal
		}
		return w.rootOf(w.tp.objOf(v), depth, ps)
	case *ast.BasicLit, *ast.FuncLit:
		return effLocal
	case *ast.CallExpr:
		// A call result is presumed derived from the call's reference
		// inputs: the receiver and by-reference arguments.
		kind := effLocal
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			isQualifier := false
			if id, isID := unparen(sel.X).(*ast.Ident); isID {
				_, isQualifier = w.tp.objOf(id).(*types.PkgName)
			}
			if !isQualifier {
				if k := w.aliasRoot(sel.X, depth+1, ps); k > kind {
					kind = k
				}
			}
		}
		for _, arg := range byRefArgs(w.tp, v, nil) {
			if k := w.aliasRoot(arg.expr, depth+1, ps); k > kind {
				kind = k
			}
		}
		return kind
	}
	return effShared
}

// call classifies one call inside the callee. Returns true when the
// call was fully handled (Inspect should not descend into it).
func (w *effWalk) call(call *ast.CallExpr) bool {
	if w.locks.op(w.tp, call, false) {
		return true
	}
	w.claimRegionLits(call)
	if target, _, ok := syncCall(w.tp, w.f, call); ok {
		if target != nil {
			w.emitThrough(target, call, true)
		}
		return true
	}
	// append(x, ...) writes into x's backing array whenever x has spare
	// capacity, wherever the result is bound: it writes through x's
	// root (reslices peeled), like copy's destination.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 && (id.Name == "copy" || id.Name == "delete" || id.Name == "append") {
		w.emitThrough(call.Args[0], call, false)
		return false // still descend for the source expression
	}

	c := resolveCall(w.tp, call, w.ff.soleValue)
	fn, boundRecv := c.fn, c.recv
	if c.delegated {
		w.handOff(call)
	}
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if !w.l.a.inModule(fn) {
		key := fn.Pkg().Name() + "." + fn.Name()
		if stdlibMutators[key] && len(call.Args) > 0 {
			w.emitThrough(call.Args[0], call, false)
		}
		return false
	}

	// In-module sub-call: map the callee's summarized parameter writes
	// and retentions through this call's arguments at the positions
	// they reach only — read-only positions carry no write effect into
	// this summary.
	sub := w.l.effectOf(fn)
	if sub.shared != "" && !w.locks.locked() {
		w.sharedAt(call, "calls "+fn.Name()+", which "+sub.shared)
	}
	for _, arg := range byRefArgs(w.tp, call, boundRecv) {
		if why := sub.kept(arg.idx); why != "" {
			w.keep(arg.expr, "via "+fn.Name()+": "+why)
		}
		if sub.writesPlain(arg.idx) {
			w.emitThrough(arg.expr, call, false)
		}
		if sub.writesAtomic(arg.idx) {
			w.emitThrough(arg.expr, call, true)
		}
	}
	return false
}

// handOff keeps every reference argument of a call whose target is
// chosen at run time — except under an out-parameter contract
// (lifeMethodContracts) and for a literal or a func value local to
// this body, whose closure bodies this walk covers.
func (w *effWalk) handOff(call *ast.CallExpr) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return
	case *ast.SelectorExpr:
		if lifeMethodContracts[fun.Sel.Name] {
			return
		}
	case *ast.Ident:
		if o, ok := w.tp.info.Uses[fun].(*types.Var); ok && o.Pos() >= w.fd.Pos() && o.Pos() <= w.fd.End() {
			return
		}
	}
	for _, a := range call.Args {
		w.keep(a, "handed to dynamic callee "+types.ExprString(call.Fun))
	}
}

// store records the retention a store of rhs into lhs causes: into a
// package-level variable always; into a field of another parameter's
// memory unless the field is a transit (nil-cleared in this body, or a
// box field cleared elsewhere in the module). A local holder keeps
// nothing until the holder itself escapes.
func (w *effWalk) store(lhs, rhs ast.Expr) {
	if isNilExpr(w.tp, rhs) {
		return
	}
	switch lv := unparen(lhs).(type) {
	case *ast.Ident:
		if o := w.tp.info.Uses[lv]; o != nil && o.Parent() == w.tp.tpkg.Scope() {
			w.keep(rhs, "stored into package-level "+lv.Name)
		}
	case *ast.SelectorExpr:
		tn := boxTypeName(w.tp.typeOf(lv.X))
		key := tn + "." + lv.Sel.Name
		if w.cleared[key] || (w.l.boxTypes[tn] && w.l.boxCleared[key]) {
			return
		}
		holders := w.keptBy(lv.X)
		for pi := range w.keptBy(rhs) {
			for hi := range holders {
				if hi != pi { // a parameter stored into its own memory stays put
					w.eff.keep(pi, "stored into "+key+", never cleared before reuse")
					break
				}
			}
		}
	}
}

// keep records that the callee keeps whatever parameter memory e may
// carry.
func (w *effWalk) keep(e ast.Expr, why string) {
	for pi := range w.keptBy(e) {
		w.eff.keep(pi, why)
	}
}

func (e *writeEffect) keep(idx int, why string) {
	if e.keeps == nil {
		e.keeps = map[int]string{}
	}
	if e.keeps[idx] == "" {
		e.keeps[idx] = why
	}
}

// keptBy returns the parameter positions whose memory the value of e
// may carry — the one rooting rule retention uses.
func (w *effWalk) keptBy(e ast.Expr) map[int]bool {
	ps := map[int]bool{}
	w.keptAt(e, 0, ps)
	return ps
}

// keptAt adds to ps the positions aliasRoot finds for e, widened to a
// call's arguments, for reference-carrying values only: an int derived
// from len(p) carries nothing.
func (w *effWalk) keptAt(e ast.Expr, depth int, ps map[int]bool) {
	if t := w.tp.typeOf(e); t != nil && !refCarrying(t) {
		return
	}
	carry := w.carry
	w.carry = true
	w.aliasRoot(e, depth, ps)
	w.carry = carry
}

// emitThrough folds a write through the memory an expression evaluates
// to (an argument, a receiver, a copy destination) into the summary.
func (w *effWalk) emitThrough(target ast.Expr, at ast.Node, atomic bool) {
	ps := map[int]bool{}
	w.emit(w.aliasRoot(target, 0, ps), at, atomic, ps)
}

// claimRegionLits registers, before Inspect descends into the literal
// bodies, the closure parameters at a core primitive's handed
// positions: they alias elements of the primitive's out argument and
// root through it.
func (w *effWalk) claimRegionLits(call *ast.CallExpr) {
	_, prim := primitiveOf(w.f, call)
	if prim == nil || len(prim.handed) == 0 || len(call.Args) <= prim.bodies[0] {
		return
	}
	lit, ok := unparen(call.Args[prim.bodies[0]]).(*ast.FuncLit)
	if !ok {
		return
	}
	for _, hi := range prim.handed {
		if obj := w.tp.paramAt(lit.Type.Params, hi); obj != nil {
			if w.litHanded == nil {
				w.litHanded = map[types.Object]ast.Expr{}
			}
			w.litHanded[obj] = call.Args[prim.out]
		}
	}
}

// perInvocationParam reports whether a closure parameter of this type
// cannot carry caller-shared reference memory: a value scalar, or the
// worker handle the scheduler passes each task.
func perInvocationParam(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Basic); ok {
		return true
	}
	return isWorkerNamed(t)
}

// ---------------------------------------------------------------------
// By-reference arguments
// ---------------------------------------------------------------------

type effArg struct {
	expr ast.Expr
	idx  int // callee parameter position (receiver = recvIdx)
}

// byRefArgs lists the expressions a call could write through or hand
// over: the method receiver (boundRecv when a method value carries it
// invisibly) and every argument whose type carries references
// (refCarrying: a struct wrapping a slice included), each tagged with
// the callee parameter position it lands in. Function-typed arguments
// are excluded — they are delegated callees, not written-to memory —
// and so are *Worker handles: a callee's writes to its worker's
// scheduling state are the scheduler's synchronized business, not user
// state.
func byRefArgs(tp *typedPkg, call *ast.CallExpr, boundRecv ast.Expr) []effArg {
	var out []effArg
	var sig *types.Signature
	if t := tp.typeOf(call.Fun); t != nil {
		sig, _ = t.Underlying().(*types.Signature)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selInfo, ok := tp.info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
			if !isWorkerNamed(tp.typeOf(sel.X)) {
				out = append(out, effArg{expr: sel.X, idx: recvIdx})
			}
		}
	}
	for ai, arg := range call.Args {
		t := tp.typeOf(arg)
		if t == nil || isWorkerNamed(t) || !refCarrying(t) {
			continue
		}
		if _, isFunc := t.Underlying().(*types.Signature); !isFunc {
			out = append(out, effArg{expr: arg, idx: argPosition(sig, ai)})
		}
	}
	if boundRecv != nil && !isWorkerNamed(tp.typeOf(boundRecv)) {
		out = append(out, effArg{expr: boundRecv, idx: recvIdx})
	}
	return out
}

// refCarrying reports whether values of a type can carry a reference
// to memory the caller owns.
func refCarrying(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarrying(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return refCarrying(u.Elem())
	}
	return false
}

// isSubstrate reports whether a resolved callee lives in one of the
// substrate packages whose primitives are non-retaining by documented
// contract (they fill out-params for the duration of the call).
func isSubstrate(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // builtins, error methods: no retention possible
	}
	p := pkg.Path()
	return isPath(p, corePath) || isPath(p, schedPath) || isPath(p, mqPath) ||
		isPath(p, specforPath) || isPath(p, arenaPath)
}
