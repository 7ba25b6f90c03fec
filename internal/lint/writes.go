package lint

// The decisions every write judgement rests on, made once for the
// races pass's region verdicts (raceclassify.go), the callee summary
// (raceeffect.go) and the lifetimes flow walk (regionflow.go): which
// calls write what (callWrites), whose memory a write lands in
// (rooting), whether a store keeps what it stores past the frame
// (keeps), and what a call whose target is chosen at run time keeps
// (handOff). Each pass is a sink of them. The region sink adds what
// only a region can prove — handed slots, index disjointness, block
// windows, join branches, held locks; the summary sink folds the
// events into a writeEffect; the lifetimes sink adds what is about
// time — marks, releases, uninitialized reads, region and goroutine
// ownership.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicWriteMethods are the mutating methods of sync/atomic types (and
// of the atomic package itself, by prefix).
var atomicWriteMethods = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true,
	"Or": true, "And": true,
}

func atomicWritePrefix(name string) bool {
	for p := range atomicWriteMethods {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}

// syncCall recognizes a call into the synchronization vocabulary:
// sync/atomic functions, the core atomic helpers, methods of the
// sync/atomic types, and methods of the sync primitives (which
// synchronize without writing user state). target is the memory an
// atomic write goes to — nil for loads and for pure synchronization —
// and label names the operation.
func syncCall(tp *typedPkg, f *fileInfo, call *ast.CallExpr) (target ast.Expr, label string, ok bool) {
	if pathStr, name, isPkg := callTarget(f, call); isPkg {
		switch {
		case isPath(pathStr, atomicPath) && atomicWritePrefix(name) && len(call.Args) > 0:
			return call.Args[0], "sync/atomic." + name, true
		case isPath(pathStr, atomicPath):
			return nil, "", true
		}
	}
	if name, prim := primitiveOf(f, call); prim != nil && prim.atomic && prim.out < len(call.Args) {
		return call.Args[prim.out], "core." + name, true
	}
	if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
		switch t := tp.typeOf(sel.X); {
		case isNamed(t, atomicPath) && atomicWriteMethods[sel.Sel.Name]:
			return sel.X, "atomic." + sel.Sel.Name, true
		case isNamed(t, atomicPath), isNamed(t, syncPath, "Mutex", "RWMutex", "WaitGroup", "Cond", "Once", "Map"):
			return nil, "", true
		}
	}
	return nil, "", false
}

// stdlibReaders are the out-of-module functions known to write none of
// their arguments; every other out-of-module callee writes through each
// by-reference argument it is handed.
var stdlibReaders = map[string]bool{"slices.BinarySearch": true}

// ---------------------------------------------------------------------
// Which calls write what
// ---------------------------------------------------------------------

// writeEvent is one write a call performs.
type writeEvent struct {
	target ast.Expr // the memory written through; nil when via writes shared state
	op     string   // the writing operation: "copy", "sync/atomic.AddInt64", "sort.Slice", ...
	// via is the in-module callee whose summary reports the write: the
	// target is the argument it receives, reported at every
	// by-reference position, written or not.
	via    *types.Func
	plain  bool   // a plain write
	atomic bool   // a sync/atomic write
	kept   string // why via keeps the argument's memory past the call
	shared string // why via writes shared state; such an event has no target
	// stored are the values a copy or append stores into target's
	// elements when those carry references (storedRefs).
	stored []ast.Expr
}

// callWrites reports through yield the writes one call performs: the
// atomic target of a synchronization call, the destination of copy,
// append, clear and delete, every by-reference argument of an
// out-of-module callee but stdlibReaders, the receiver of a CountSort
// handout, and, for any other in-module callee, its summary mapped
// through the call's by-reference arguments. yield returns false to
// stop. delegated reports a call whose target is chosen at run time:
// the callee owns its writes.
func (l *typeLoader) callWrites(tp *typedPkg, f *fileInfo, ff *funcFacts, call *ast.CallExpr, yield func(writeEvent) bool) (delegated bool) {
	if target, label, ok := syncCall(tp, f, call); ok {
		if target != nil {
			yield(writeEvent{target: target, op: label, atomic: true})
		}
		return false
	}
	if name := builtinOf(tp, call); name != "" {
		// append(x, ...) writes into x's backing array whenever x has
		// spare capacity, wherever the result is bound.
		if name == "copy" || name == "append" || name == "clear" || name == "delete" {
			yield(writeEvent{target: call.Args[0], op: name, plain: true, stored: storedRefs(tp, call)})
		}
		return false
	}
	// A func-typed local bound exactly once to a method value resolves
	// to the method, with the bound receiver written through like any
	// other by-reference argument.
	c := resolveCall(tp, call, ff.soleValue)
	fn := c.fn
	if fn == nil || fn.Pkg() == nil {
		return c.delegated
	}
	if !l.a.inModule(fn) {
		if key := fn.Pkg().Name() + "." + fn.Name(); !stdlibReaders[key] {
			for _, arg := range byRefArgs(tp, call, c.recv) {
				if !yield(writeEvent{target: arg.expr, op: key, plain: true}) {
					return false
				}
			}
		}
		return false
	}
	// Counter.Add and Cursor.Next write the block's own row of the
	// engine's matrix and nothing else: the handout they are called on.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isNamed(recv.Type(), corePath, "Counter", "Cursor") {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			yield(writeEvent{target: sel.X, op: "via " + fn.Name(), via: fn, plain: true})
		}
		return false
	}
	sub := l.effectOf(fn)
	if sub.shared != "" && !yield(writeEvent{via: fn, shared: sub.shared}) {
		return false
	}
	for _, arg := range byRefArgs(tp, call, c.recv) {
		if !yield(writeEvent{target: arg.expr, op: "via " + fn.Name(), via: fn,
			plain: sub.writesPlain(arg.idx), atomic: sub.writesAtomic(arg.idx), kept: sub.kept(arg.idx)}) {
			return false
		}
	}
	return false
}

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
		if t := tp.typeOf(arg); holdsRef(t) && !isWorkerNamed(t) {
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

// holdsRef reports whether values of a type can carry a reference the
// rooting follows: function values are delegated callees, not memory.
func holdsRef(t types.Type) bool {
	if t == nil || !refCarrying(t) {
		return false
	}
	_, isFunc := t.Underlying().(*types.Signature)
	return !isFunc
}

// arenaCheckout recognizes a checkout from the arena package — the
// slice forms Alloc[T](a, n), zeroed like make, and AllocUninit[T](a,
// n), holding what earlier generations left, and the box form
// AcquireBox[T](w) — and returns its name and, for a slice form, the
// length argument. name is "" for any other call.
func arenaCheckout(f *fileInfo, call *ast.CallExpr) (name string, length ast.Expr) {
	pathStr, name, isPkg := callTarget(f, call)
	switch {
	case !isPkg || !isPath(pathStr, arenaPath):
	case (name == "Alloc" || name == "AllocUninit") && len(call.Args) == 2:
		return name, call.Args[1]
	case name == "AcquireBox":
		return name, nil
	}
	return "", nil
}

// ---------------------------------------------------------------------
// Whose memory a write lands in
// ---------------------------------------------------------------------

// memKind roots a memory access. Order matters: merging takes the
// worst.
type memKind int

const (
	memFresh    memKind = iota // allocated in the frame, or the zero value
	memCheckout                // an arena checkout: worker-local by checkout discipline
	memHanded                  // handed to the frame: a region's slots, a callee's parameters
	memShared
)

// memFrame is the code a rooting judges from: a parallel region's body
// or a summarized callee's body.
type memFrame interface {
	// owns reports whether obj is the frame's own variable rather than
	// one it shares with concurrent frames.
	owns(obj types.Object) bool
	// handed reports whether obj is handed to the frame by its caller,
	// adding the parameter position to ps where the frame has one.
	handed(obj types.Object, ps map[int]bool) bool
}

// funcFrame is the frame of one function body, keyed by its parameter
// objects with their positions (receiver = recvIdx): everything but
// package-level state is the function's own, or its caller's through a
// parameter.
type funcFrame map[types.Object]int

func (fr funcFrame) owns(obj types.Object) bool {
	p := obj.Parent()
	return p == nil || p.Parent() != types.Universe
}

func (fr funcFrame) handed(obj types.Object, ps map[int]bool) bool {
	idx, isParam := fr[obj]
	if isParam && ps != nil {
		ps[idx] = true
	}
	return isParam
}

// rooting classifies whose memory an expression's value or a write
// target lands in, for one frame. A variable's root is the worst root
// over everything it was ever bound to; the parameter positions that
// contribute are gathered in ps (nil when the caller does not ask).
type rooting struct {
	l     *typeLoader
	tp    *typedPkg
	f     *fileInfo
	ff    *funcFacts // def-use facts: every binding of every local
	frame memFrame
	// lits maps closure parameters to the memory a call hands them: a
	// core primitive's out argument, whose elements they alias, or the
	// arguments of a literal invoked in place.
	lits   map[types.Object][]ast.Expr
	inRoot map[types.Object]bool // rootVar cycle guard (swap chains)
	// carry widens root while retention asks what a value may carry
	// rather than whose memory it is: a call's arguments and a
	// received value's channel count too.
	carry bool
	// cleared holds the "Type.field" pairs the frame's body nil-clears:
	// transits for keeps, beside the module's cleared box fields.
	cleared map[string]bool
}

// path roots a write through the access path steps from base:
// writing a frame variable itself, or storage inside it, stays in the
// frame.
func (r *rooting) path(base *ast.Ident, steps []targetStep, ps map[int]bool) memKind {
	if base.Name == "_" {
		return memFresh // the blank identifier stores nothing
	}
	obj := r.tp.objOf(base)
	switch {
	case obj == nil || !r.frame.owns(obj):
		return memShared
	case !crossesStorage(obj.Type(), steps):
		return memFresh
	}
	return r.rootVar(obj, steps, 0, ps)
}

// rootVar resolves whose memory a variable's referent is. steps is the
// access path a write takes below obj, nil when rooting obj's value.
func (r *rooting) rootVar(obj types.Object, steps []targetStep, depth int, ps map[int]bool) memKind {
	if depth > 6 || obj == nil || !r.frame.owns(obj) {
		return memShared
	}
	if r.frame.handed(obj, ps) {
		return memHanded
	}
	if r.ff.of(obj).litParam && perInvocationParam(obj.Type()) {
		// Scalar and worker-handle parameters of any closure are
		// per-invocation values wherever the closure ends up invoked.
		// Reference parameters stay conservatively shared unless a
		// region primitive hands them memory (lits).
		return memFresh
	}
	if backs, ok := r.lits[obj]; ok {
		kind := memFresh
		for _, back := range backs {
			kind = max(kind, r.root(back, depth+1, ps))
		}
		return kind
	}
	srcs, ok := r.sources(obj, steps)
	if !ok {
		return memShared // untracked (unclaimed closure param, tuple result)
	}
	if r.inRoot[obj] {
		// Binding cycle (a, b = b, a ping-pong): the cycle itself
		// introduces no memory; the true roots appear on the bindings
		// outside it, which the outer worst-of fold still visits.
		return memFresh
	}
	if r.inRoot == nil {
		r.inRoot = map[types.Object]bool{}
	}
	r.inRoot[obj] = true
	kind := memFresh // no bindings at all: the zero value
	for _, src := range srcs {
		kind = max(kind, r.root(src, depth+1, ps))
	}
	delete(r.inRoot, obj)
	return kind
}

// sources lists every expression obj was ever bound to, and every
// value stored into its storage that the access (steps, as in rootVar)
// reaches through. ok=false marks a binding or store the walk cannot
// model (tuple results), a variable never bound here, or one that is
// not a variable.
func (r *rooting) sources(obj types.Object, steps []targetStep) (srcs []ast.Expr, ok bool) {
	if _, isVar := obj.(*types.Var); !isVar {
		return nil, false
	}
	binds := r.ff.of(obj).binds
	for _, b := range binds {
		switch {
		case b.op == token.INC || b.op == token.DEC:
		case b.op == token.RANGE:
			// The value variable may alias elements of the ranged
			// expression; root both through it.
			srcs = append(srcs, b.rhs)
		case b.zeroValue():
			// var x T: no memory.
		case b.value() == nil && commaOK(b) != nil:
			srcs = append(srcs, commaOK(b))
		case b.value() == nil:
			return nil, false
		case !b.define && selfDerived(r.tp, b.rhs, obj):
			// x = append(x, ...) and x = x[i:j] rebind x to the same
			// underlying memory: no new root but what is appended, and
			// that only below x's element slots, not in them.
			if len(steps) != 1 {
				srcs = append(srcs, storedRefs(r.tp, b.rhs)...)
			}
		default:
			srcs = append(srcs, b.rhs)
		}
	}
	// A store into the variable's storage (s.f = v, s[i] = v, p.f = v)
	// hands v's memory to everything reached through the stored
	// location: obj's value, and a write whose path extends the
	// store's. A write to the location itself, or beside it, does not
	// go through v.
	for _, oc := range r.ff.of(obj).occs {
		var at ast.Expr = oc.id
		for p, _ := r.ff.parent[at].(ast.Expr); p != nil && innerOperand(p) == at; p, _ = r.ff.parent[at].(ast.Expr) {
			at = p
		}
		as, ok := r.ff.parent[at].(*ast.AssignStmt)
		if at == ast.Expr(oc.id) || !ok || as.Tok == token.DEFINE || !holdsRef(r.tp.typeOf(at)) {
			continue
		}
		if _, stored, peeled := peelTarget(at); peeled && steps != nil && !extends(steps, stored) {
			continue
		}
		for i, lhs := range as.Lhs {
			switch {
			case lhs != at:
			case len(as.Lhs) != len(as.Rhs):
				return nil, false
			default:
				srcs = append(srcs, as.Rhs[i])
			}
		}
	}
	return srcs, len(binds) > 0
}

// extends reports whether the access path steps reaches through the
// location prefix names, taking any two indexes as possibly equal.
func extends(steps, prefix []targetStep) bool {
	if len(steps) <= len(prefix) {
		return false
	}
	for i, st := range prefix {
		if st.field != steps[i].field || st.star != steps[i].star || (st.index == nil) != (steps[i].index == nil) {
			return false
		}
	}
	return true
}

// storedRefs returns the values append(x, ...) and copy(x, src) store
// into x's elements when those carry references (src, and a spread
// argument, stand for their elements): like a literal's elements, they
// keep their roots inside x's memory.
func storedRefs(tp *typedPkg, e ast.Expr) []ast.Expr {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" && id.Name != "copy" {
		return nil
	}
	if t := tp.typeOf(call.Args[0]); t == nil {
		return nil
	} else if sl, ok := t.Underlying().(*types.Slice); !ok || !holdsRef(sl.Elem()) {
		return nil
	}
	return call.Args[1:]
}

// commaOK returns the value a comma-ok form (v, ok := x.(T), m[k] or
// <-ch) binds to its first variable.
func commaOK(b *binding) ast.Expr {
	if as, ok := b.at.(*ast.AssignStmt); ok && b.op == token.ILLEGAL && b.resIdx == 0 && len(as.Rhs) == 1 {
		if _, isCall := unparen(as.Rhs[0]).(*ast.CallExpr); !isCall {
			return as.Rhs[0]
		}
	}
	return nil
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

// root resolves the root of the memory an expression evaluates to.
func (r *rooting) root(e ast.Expr, depth int, ps map[int]bool) memKind {
	if depth > 8 {
		return memShared
	}
	e = unparen(e)
	if r.carry {
		switch v := e.(type) {
		case *ast.CallExpr:
			for _, a := range v.Args {
				r.carried(a, depth+1, ps)
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				r.root(v.X, depth+1, ps)
			}
		}
	}
	if operand, fresh := r.tp.memoryOf(e); fresh {
		return memFresh
	} else if operand != nil {
		kind := r.root(operand, depth+1, ps)
		for _, el := range storedRefs(r.tp, e) {
			kind = max(kind, r.root(el, depth+1, ps))
		}
		return kind
	}
	if x := innerOperand(e); x != nil {
		return r.root(x, depth+1, ps)
	}
	switch v := e.(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return memFresh
		}
		return r.rootVar(r.tp.objOf(v), nil, depth, ps)
	case *ast.BasicLit, *ast.FuncLit:
		return memFresh
	case *ast.CompositeLit:
		// A literal allocates, but what it wraps does not move: T{xs}
		// writes through to xs's memory. Its root is the worst among
		// the elements that can carry a reference.
		kind := memFresh
		for _, el := range v.Elts {
			parts := []ast.Expr{el}
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				parts = []ast.Expr{kv.Key, kv.Value}
			}
			for _, x := range parts {
				if holdsRef(r.tp.typeOf(x)) {
					kind = max(kind, r.root(x, depth+1, ps))
				}
			}
		}
		return kind
	case *ast.CallExpr:
		if name, _ := arenaCheckout(r.f, v); name != "" {
			return memCheckout
		}
		if pathStr, name, isPkg := callTarget(r.f, v); isPkg && isPath(pathStr, arenaPath) && name == "Of" {
			return memFresh // the worker's own arena
		}
		// A call result is rooted at the worst of the call's reference
		// inputs, the receiver and by-reference arguments, the worker
		// handle included (its scratch is the worker's); an in-module
		// callee's summary tells whether its results carry memory from
		// anywhere else. Any other call with no inputs returns memory
		// from wherever its callee reaches: shared.
		kind, derived := memFresh, false
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			id, _ := unparen(sel.X).(*ast.Ident)
			if _, isQualifier := r.tp.objOf(id).(*types.PkgName); !isQualifier {
				kind, derived = r.root(sel.X, depth+1, ps), true
			}
		}
		for _, arg := range v.Args {
			if holdsRef(r.tp.typeOf(arg)) {
				kind, derived = max(kind, r.root(arg, depth+1, ps)), true
			}
		}
		if c := resolveCall(r.tp, v, r.ff.soleValue); c.fn != nil && r.l.a.inModule(c.fn) {
			if r.l.effectOf(c.fn).returns != "" {
				return memShared
			}
			derived = true
		}
		if !derived {
			return memShared
		}
		return kind
	}
	return memShared
}

// carried adds to ps the positions root finds for e, widened to a
// call's arguments, for reference-carrying values only: an int derived
// from len(p) carries nothing.
func (r *rooting) carried(e ast.Expr, depth int, ps map[int]bool) {
	if t := r.tp.typeOf(e); t != nil && !refCarrying(t) {
		return
	}
	carry := r.carry
	r.carry = true
	r.root(e, depth, ps)
	r.carry = carry
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
// Whether a store keeps what it stores
// ---------------------------------------------------------------------

// keeps reports why a store through the access path steps from base
// keeps the stored value past the frame, or "" when it does not. A
// store keeps when it lands in a variable the frame does not own
// (package-level state), or below a variable, in memory rooted outside
// the frame — handed or shared — or in frame memory base is not the
// only name of (soleName): a field that is no cleared transit, an
// element, a pointer's target. A store into memory only base names
// keeps nothing by itself: base carries the value, and its own escape
// is judged where it happens. transit names the field a store passes
// through when it is nil-cleared in the frame's body, or is a box field
// cleared somewhere in the module (prescanBoxes); ps gathers the
// parameter positions the written memory roots at.
func (r *rooting) keeps(base *ast.Ident, steps []targetStep, ps map[int]bool) (why, transit string) {
	if obj := r.tp.objOf(base); obj != nil && !r.frame.owns(obj) {
		return "stored into package-level " + base.Name, ""
	}
	if len(steps) == 0 {
		return "", "" // the frame's own variable holds it (or _ drops it)
	}
	last := steps[len(steps)-1]
	key := ""
	if last.field != "" {
		tn := boxTypeName(r.tp.typeOf(last.of))
		key = tn + "." + last.field
		if r.cleared[key] || r.l.boxTypes[tn] && r.l.boxCleared[key] {
			return "", key
		}
	}
	switch {
	case r.path(base, steps, ps) < memHanded && r.soleName(r.tp.objOf(base), steps):
		return "", ""
	case key != "":
		return "stored into " + key + ", never cleared before reuse", ""
	case last.star:
		return "stored through a pointer the pass cannot confine", ""
	}
	return "stored into indexed memory the pass cannot confine", ""
}

// soleName reports whether obj is the only name of the memory a store
// through steps below it lands in, so that obj alone carries what is
// stored. Only the first step may cross out of obj's storage, into a
// referent obj allocates at most once (the zero value, make, new, a
// literal) or rebinds to itself (append(obj, …), obj[i:j]); and no
// mention of obj may hand its memory on (handsOn).
func (r *rooting) soleName(obj types.Object, steps []targetStep) bool {
	for i := 1; i < len(steps); i++ {
		if crossesStorage(r.tp.typeOf(steps[i].of), steps[i:i+1]) {
			return false // into memory obj merely holds
		}
	}
	vf := r.ff.of(obj)
	if obj != nil && crossesStorage(obj.Type(), steps[:1]) {
		allocs := 0
		for _, b := range vf.binds {
			v := unparen(b.value())
			if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
				v = unparen(u.X)
			}
			_, fresh := r.tp.memoryOf(v)
			_, lit := v.(*ast.CompositeLit)
			switch {
			case fresh || lit || b.zeroValue():
				allocs++
			case b.define || v == nil || !selfDerived(r.tp, v, obj):
				return false
			}
		}
		if allocs > 1 {
			return false
		}
	}
	for _, oc := range vf.occs {
		if oc.bind == nil && r.handsOn(obj, oc.id) {
			return false
		}
	}
	return true
}

// handsOn reports whether the mention id of obj hands obj's memory to a
// second name: an address, a reslice, a type assertion or a method
// receiver taken along its access path, or obj's own reference used
// other than to rebind obj to itself, in a comparison or a range, or as
// an operand of len, cap, copy, clear, delete or an append spread.
func (r *rooting) handsOn(obj types.Object, id *ast.Ident) bool {
	var cur ast.Expr = id
	bare := true // cur is obj itself, parenthesized or not
	for p, _ := r.ff.parent[cur].(ast.Expr); p != nil && innerOperand(p) == cur; p, _ = r.ff.parent[cur].(ast.Expr) {
		switch v := p.(type) {
		case *ast.UnaryExpr, *ast.SliceExpr, *ast.TypeAssertExpr:
			return !bare || !r.rebinds(obj, p)
		case *ast.SelectorExpr:
			if sel, ok := r.tp.info.Selections[v]; !ok || sel.Kind() != types.FieldVal {
				return true
			}
		}
		_, isParen := p.(*ast.ParenExpr)
		bare, cur = bare && isParen, p
	}
	switch obj.Type().Underlying().(type) {
	case *types.Struct, *types.Array, *types.Basic:
		return false // a copy of obj's storage
	}
	if !bare {
		return false // a copy of a value in obj's memory
	}
	switch p := r.ff.parent[cur].(type) {
	case *ast.RangeStmt, *ast.BinaryExpr:
		return false
	case *ast.CallExpr:
		switch builtinOf(r.tp, p) {
		case "len", "cap", "copy", "clear", "delete":
			return false
		case "append":
			return p.Args[0] == cur && !r.rebinds(obj, p) || p.Args[0] != cur && !p.Ellipsis.IsValid()
		}
	}
	return true
}

// rebinds reports whether obj is bound to e, as in obj = append(obj,
// …) and obj = obj[i:j].
func (r *rooting) rebinds(obj types.Object, e ast.Expr) bool {
	for _, b := range r.ff.of(obj).binds {
		if b.value() == e {
			return true
		}
	}
	return false
}

// peelElem is peelTarget for the elements of dst, the memory a copy,
// append or clear writes: rooted as the element write dst[i] = … would
// be (dst stands in for the index), never as an assignment to the
// variable that names dst. The elements of x[lo:hi] are x's: a slice of
// a local array writes the array's own storage.
func peelElem(dst ast.Expr) (*ast.Ident, []targetStep, bool) {
	if sl, ok := unparen(dst).(*ast.SliceExpr); ok {
		dst = sl.X
	}
	base, steps, ok := peelTarget(dst)
	return base, append(steps, targetStep{index: dst, of: dst}), ok
}

// ---------------------------------------------------------------------
// What a call chosen at run time keeps
// ---------------------------------------------------------------------

// lifeMethodContracts are out-parameter contracts for dynamic
// (interface) callees no summary covers: the named method fills its
// slice argument and returns an alias of it, retaining nothing.
// RowInto/WRow are the Adjacency seam's row decoders.
var lifeMethodContracts = map[string]bool{
	"RowInto": true,
	"WRow":    true,
}

// handOff reports why a call whose target is chosen at run time
// (callWrites' delegated) keeps its by-reference arguments, or "" when
// it lets them go: under an out-parameter contract, and into a literal
// or a closure local to the body, which the walk covers itself.
func handOff(tp *typedPkg, ff *funcFacts, call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return ""
	case *ast.SelectorExpr:
		if lifeMethodContracts[fun.Sel.Name] {
			return ""
		}
	case *ast.Ident:
		if ff.litOf(tp.objOf(fun)) != nil {
			return ""
		}
	}
	return "handed to dynamic callee " + types.ExprString(call.Fun)
}
