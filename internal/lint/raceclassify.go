package lint

// regionCheck classifies every shared write in one parallel region
// (races.go). The walk is statement-ordered so mutex state is tracked
// linearly; expressions are scanned for call effects; nested region
// bodies (claimed closures) are skipped — they are regions of their
// own.

import (
	"fmt"
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
		case isNamed(t, atomicPath), isNamed(t, syncPath, "Mutex", "RWMutex", "WaitGroup", "Cond", "Once"):
			return nil, "", true
		}
	}
	return nil, "", false
}

// stdlibMutators are standard-library functions that write through
// their arguments; everything else out-of-module is assumed read-only.
var stdlibMutators = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "rand.Shuffle": true, "copy": true,
}

type regionCheck struct {
	l     *typeLoader
	tp    *typedPkg
	f     *fileInfo
	fd    *ast.FuncDecl
	r     *raceRegion
	sites []RaceSite

	ff      *funcFacts                 // def-use facts of the enclosing function
	recv    types.Object               // RunRange region receiver: shared across invocations
	facts   map[types.Object]*raceFact // fact's memo
	fieldWr map[string]bool            // selector atoms assigned in the region ("s.block")

	locks lockTracker

	taskMemo map[types.Object]taskRes
}

// raceFact is the region's view of one variable: the shared def-use
// facts restricted to the bindings the region body itself performs.
type raceFact struct {
	def        ast.Expr // 1:1 define RHS (nil for tuple defines)
	assigns    int
	shrinkOnly bool // all reassignments are shrink guards (if x > y { x = y })
	addrTaken  bool
	isLoop     bool
}

type taskRes struct {
	detail string
	ok     bool
}

func newRegionCheck(l *typeLoader, tp *typedPkg, f *fileInfo, fd *ast.FuncDecl, r *raceRegion) *regionCheck {
	return &regionCheck{
		l: l, tp: tp, f: f, fd: fd, r: r,
		ff:       l.factsOf(tp, fd),
		facts:    map[types.Object]*raceFact{},
		fieldWr:  map[string]bool{},
		taskMemo: map[types.Object]taskRes{},
	}
}

func (rc *regionCheck) run() {
	if rc.r.body == nil {
		return
	}
	if rc.fd.Recv != nil && rc.r.kind == "RangeBody.RunRange" && len(rc.fd.Recv.List) > 0 {
		fld := rc.fd.Recv.List[0]
		if len(fld.Names) > 0 {
			rc.recv = rc.tp.info.Defs[fld.Names[0]]
		}
	}
	// Selector atoms the region assigns: an index term naming one is
	// not region-invariant.
	eachWrite(rc.r.body, func(lhs ast.Expr) {
		if sel, isSel := unparen(lhs).(*ast.SelectorExpr); isSel {
			if key := canonString(rc.tp, sel); key != "" {
				rc.fieldWr[key] = true
			}
		}
	})
	walkStmts(rc, rc.r.body.List)
}

// local reports whether obj lives inside one invocation of the region:
// declared in its body, or one of the parameters the region contract
// hands the invocation.
func (rc *regionCheck) local(obj types.Object) bool {
	if obj == nil {
		return false
	}
	r := rc.r
	_, isTask := r.task[obj]
	return within(obj.Pos(), r.body) || isTask || r.handed[obj] ||
		obj == r.rangeLo || obj == r.rangeHi || obj == r.worker
}

// fact returns (memoized) the region's view of obj: its definition and
// the reassignments the region body performs. Bindings outside the body
// happen before the region starts and do not vary across invocations.
func (rc *regionCheck) fact(obj types.Object) *raceFact {
	if fx := rc.facts[obj]; fx != nil {
		return fx
	}
	vf := rc.ff.of(obj)
	fx := &raceFact{addrTaken: vf.addrTaken, isLoop: vf.loopVar}
	allShrink := true
	for _, b := range vf.binds {
		switch {
		case !within(b.pos, rc.r.body):
		case b.define:
			fx.def = b.value()
		default:
			fx.assigns++
			allShrink = allShrink && rc.isShrinkAssign(b, obj)
		}
	}
	fx.shrinkOnly = fx.assigns > 0 && allShrink
	rc.facts[obj] = fx
	return fx
}

// loop returns the counted-loop header of a region-local loop variable.
func (rc *regionCheck) loop(obj types.Object) *loopShape {
	if !rc.local(obj) {
		return nil
	}
	return rc.ff.of(obj).loop
}

// isShrinkAssign reports whether this assignment is the body of a
// shrink guard `if x > Y { x = Y }` (or >=) — a cap that keeps x at or
// below its defined value, which the block-owner rule tolerates.
func (rc *regionCheck) isShrinkAssign(b *binding, obj types.Object) bool {
	as, ok := b.at.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	for n := rc.ff.parent[as]; n != nil && n != ast.Node(rc.r.body); n = rc.ff.parent[n] {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if len(ifs.Body.List) != 1 {
			return false
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.GTR && cond.Op != token.GEQ) {
			return false
		}
		cid, ok := unparen(cond.X).(*ast.Ident)
		if !ok || rc.tp.objOf(cid) != obj {
			return false
		}
		return exprEq(rc.tp, cond.Y, as.Rhs[0])
	}
	return false
}

// ---------------------------------------------------------------------
// Statement walk
// ---------------------------------------------------------------------

func (rc *regionCheck) expr(e ast.Expr) { rc.scanExpr(e) }

// stmt classifies one simple statement of the region (walkStmt).
func (rc *regionCheck) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.ExprStmt:
		if call, ok := unparen(v.X).(*ast.CallExpr); ok && rc.locks.op(rc.tp, call, false) {
			return
		}
		rc.scanExpr(v.X)
	case *ast.DeferStmt:
		if rc.locks.op(rc.tp, v.Call, true) {
			return
		}
		rc.scanExpr(v.Call)
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			rc.scanExpr(rhs)
		}
		if v.Tok == token.DEFINE {
			for _, lhs := range v.Lhs {
				if _, ok := lhs.(*ast.Ident); !ok {
					rc.classifyWrite(lhs) // mixed define/assign
				}
			}
			return
		}
		for _, lhs := range v.Lhs {
			rc.scanWriteSubexprs(lhs)
			rc.classifyWrite(lhs)
		}
	case *ast.IncDecStmt:
		rc.scanWriteSubexprs(v.X)
		rc.classifyWrite(v.X)
	case *ast.SendStmt:
		rc.scanExpr(v.Chan)
		rc.scanExpr(v.Value) // channel sends synchronize; no site
	case *ast.GoStmt:
		if lit, ok := unparen(v.Call.Fun).(*ast.FuncLit); ok && rc.r.claimed[lit] {
			for _, a := range v.Call.Args {
				rc.scanExpr(a)
			}
			return
		}
		rc.refuse(v, types.ExprString(v.Call.Fun),
			"goroutine launch through %s: the spawned code is not a lexical region this pass can certify", types.ExprString(v.Call.Fun))
	case *ast.RangeStmt:
		rc.scanExpr(v.X)
		if v.Tok == token.ASSIGN {
			rc.classifyWrite(v.Key)
			if v.Value != nil {
				rc.classifyWrite(v.Value)
			}
		}
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			rc.scanExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						rc.scanExpr(e)
					}
				}
			}
		}
	}
}

// scanWriteSubexprs scans the index and base expressions of a write
// target (which may themselves contain classified calls) without
// treating the target as a read.
func (rc *regionCheck) scanWriteSubexprs(lhs ast.Expr) {
	switch v := unparen(lhs).(type) {
	case *ast.IndexExpr:
		rc.scanExpr(v.Index)
		rc.scanWriteSubexprs(v.X)
	case *ast.SelectorExpr:
		rc.scanWriteSubexprs(v.X)
	case *ast.StarExpr:
		rc.scanWriteSubexprs(v.X)
	}
}

// scanExpr walks an expression classifying call effects. Claimed
// closures (nested region bodies) are skipped; other closures are
// walked with the lock set cleared (they may run on another frame).
func (rc *regionCheck) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if rc.r.claimed[v] {
				return false
			}
			saved := rc.locks
			rc.locks = lockTracker{}
			walkStmts(rc, v.Body.List)
			rc.locks = saved
			return false
		case *ast.CallExpr:
			rc.classifyCall(v)
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Call classification
// ---------------------------------------------------------------------

func (rc *regionCheck) classifyCall(call *ast.CallExpr) {
	if target, label, ok := syncCall(rc.tp, rc.f, call); ok {
		if target != nil {
			rc.site(RaceAtomic, label, call, types.ExprString(target))
		}
		return
	}
	if _, prim := primitiveOf(rc.f, call); prim != nil && len(prim.bodies) > 0 {
		return // nested primitive: its body is a region of its own
	}
	if pathStr, name, isPkg := callTarget(rc.f, call); isPkg && isMQDriver(pathStr, name) {
		return
	}
	// Other package calls fall through to the effect engine.

	// Worker fork points.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isWorkerNamed(rc.tp.typeOf(sel.X)) {
			switch sel.Sel.Name {
			case "For", "ForBody", "Join", "SpawnTask":
				return // fork points: bodies are regions of their own
			case "Spawn":
				tgt := ""
				if len(call.Args) > 0 {
					tgt = types.ExprString(call.Args[0])
				}
				rc.refuse(call, tgt,
					"task spawned through %s is resolved dynamically; its writes are not in a lexical region", tgt)
				return
			}
		}
	}

	// A func-typed local bound exactly once to a method value resolves
	// to the method, with the bound receiver classified like any other
	// by-reference argument — binding the method first must not hide
	// the receiver write.
	c := resolveCall(rc.tp, call, rc.ff.soleValue)
	fn, boundRecv := c.fn, c.recv
	if c.delegated {
		return // unresolvable func value or interface method: the callee owns its writes
	}
	if fn == nil {
		// Conversions, builtins, unresolved.
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			rc.classifyBuiltin(id.Name, call)
		}
		return
	}
	if fn.Pkg() == nil {
		return
	}
	if !rc.l.a.inModule(fn) {
		rc.classifyStdlibCall(fn, call)
		return
	}
	rc.classifyEffectCall(fn, call, boundRecv)
}

// classifyBuiltin handles the writing builtins.
func (rc *regionCheck) classifyBuiltin(name string, call *ast.CallExpr) {
	switch name {
	case "copy":
		if len(call.Args) == 2 {
			rc.classifyBulkWrite(call, call.Args[0], "copy")
		}
	case "append":
		// append(x, ...) writes into x's backing array whenever x has
		// spare capacity, wherever the result is bound. Unless x is a
		// window capped to the task, that array is x's root, reslices
		// peeled: append(xs[lo:hi], v) writes xs[hi].
		if len(call.Args) == 0 {
			return
		}
		dst := unparen(call.Args[0])
		if rc.matchBlockWindow(dst) {
			rc.site(RaceIndexDisjoint, "block-scaled", call, types.ExprString(dst))
			return
		}
		for sl, ok := dst.(*ast.SliceExpr); ok; sl, ok = dst.(*ast.SliceExpr) {
			dst = unparen(sl.X)
		}
		rc.classifyBulkWrite(call, dst, "append")
	case "delete":
		if len(call.Args) > 0 {
			rc.refuse(call, types.ExprString(call.Args[0]),
				"delete on %s: concurrent map mutation", types.ExprString(call.Args[0]))
		}
	}
}

// classifyBulkWrite classifies a whole-slice write (a copy or append
// destination).
func (rc *regionCheck) classifyBulkWrite(at ast.Node, dst ast.Expr, what string) {
	// xs[lo:hi] over the invocation's handed subrange is its own window
	// of xs: the subranges handed to concurrent invocations are disjoint.
	if sl, isSlice := unparen(dst).(*ast.SliceExpr); isSlice && rc.r.rangeLo != nil && sl.Max == nil &&
		sl.Low != nil && rc.varOf(sl.Low) == rc.r.rangeLo && sl.High != nil && rc.varOf(sl.High) == rc.r.rangeHi {
		rc.site(RaceIndexDisjoint, "range-owner", at, types.ExprString(dst))
		return
	}
	base, steps, ok := peelTarget(dst)
	if !ok {
		rc.refuse(at, types.ExprString(dst), "%s into unresolved destination %s", what, types.ExprString(dst))
		return
	}
	obj := rc.tp.objOf(base)
	switch rc.memClass(obj, steps) {
	case memHanded:
		rc.site(RaceWorkerLocal, "handed chunk", at, types.ExprString(dst))
	case memLocal:
		// region-local destination: no shared write
	case memCheckout:
		rc.site(RaceWorkerLocal, "arena checkout", at, types.ExprString(dst))
	default:
		if rc.locks.locked() {
			rc.site(RaceLockGuarded, rc.locks.guard(), at, types.ExprString(dst))
			return
		}
		rc.refuse(at, types.ExprString(dst), "%s into shared %s: destination range not provably task-owned", what, types.ExprString(dst))
	}
}

// classifyStdlibCall: out-of-module calls are assumed read-only except
// the known mutators.
func (rc *regionCheck) classifyStdlibCall(fn *types.Func, call *ast.CallExpr) {
	key := fn.Pkg().Name() + "." + fn.Name()
	if stdlibMutators[key] && len(call.Args) > 0 {
		rc.classifyBulkWrite(call, call.Args[0], key)
	}
}

// classifyEffectCall consults the callee's memoized write-effect
// summary (raceeffect.go). boundRecv, when non-nil, is the receiver a
// method value was bound over — absent from the call syntax but
// written through all the same, so it joins the by-reference
// arguments.
func (rc *regionCheck) classifyEffectCall(fn *types.Func, call *ast.CallExpr, boundRecv ast.Expr) {
	eff := rc.l.effectOf(fn)
	if eff.shared != "" {
		if rc.locks.locked() {
			rc.site(RaceLockGuarded, rc.locks.guard(), call, fn.Name()+"()")
			return
		}
		rc.refuse(call, fn.Name()+"()",
			"calls %s, which writes shared state (%s) without synchronization", fn.Name(), eff.shared)
		return
	}
	if !eff.paramPlain && !eff.paramAtomic {
		return // callee confines its writes
	}
	// The callee writes through some of its parameters: the arguments
	// at written positions must hand it task-owned memory; positions
	// the summary proves read-only may carry shared data (the decoder
	// reading a shared compressed row into a task-owned buffer). Sites
	// anchor at the argument, not the call, so one call can carry
	// several verdicts.
	for _, arg := range byRefArgs(rc.tp, call, boundRecv) {
		if !eff.writesThrough(arg.idx) {
			continue // summarized read-only at this position
		}
		if rc.joinDisjointSlice(arg.expr) {
			rc.site(RaceWorkerLocal, "join-disjoint-slices", arg.expr, types.ExprString(arg.expr))
			continue
		}
		if rc.matchBlockWindow(arg.expr) {
			rc.site(RaceIndexDisjoint, "block-scaled", arg.expr, types.ExprString(arg.expr))
			continue
		}
		base, steps, ok := peelTarget(arg.expr)
		if !ok {
			rc.refuse(arg.expr, types.ExprString(arg.expr),
				"passes %s to %s, which writes through its parameters", types.ExprString(arg.expr), fn.Name())
			continue
		}
		obj := rc.tp.objOf(base)
		switch rc.memClass(obj, steps) {
		case memHanded, memLocal, memCheckout:
			continue
		}
		if eff.writesAtomic(arg.idx) && !eff.writesPlain(arg.idx) {
			rc.site(RaceAtomic, "via "+fn.Name(), arg.expr, types.ExprString(arg.expr))
			continue
		}
		if rc.locks.locked() {
			rc.site(RaceLockGuarded, rc.locks.guard(), arg.expr, types.ExprString(arg.expr))
			continue
		}
		rc.refuse(arg.expr, types.ExprString(arg.expr),
			"passes shared %s to %s, which writes through its parameters", types.ExprString(arg.expr), fn.Name())
	}
}

// joinDisjointSlice proves the D&C handout idiom: this Join branch
// passes base[l1:h1] to a mutating callee while the sibling branch
// touches base only through slice expressions provably disjoint from
// [l1, h1) — the two branches own complementary pieces.
func (rc *regionCheck) joinDisjointSlice(arg ast.Expr) bool {
	if rc.r.sibling == nil {
		return false
	}
	se, ok := unparen(arg).(*ast.SliceExpr)
	if !ok {
		return false
	}
	baseID, ok := unparen(se.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := rc.tp.objOf(baseID)
	if obj == nil {
		return false
	}
	// Every use of base in the sibling must be the X of a slice
	// expression whose range is disjoint from ours.
	used := false
	for _, oc := range rc.ff.of(obj).occs {
		if !within(oc.id.Pos(), rc.r.sibling) {
			continue
		}
		used = true
		other, isSlice := rc.ff.parent[oc.id].(*ast.SliceExpr)
		if !isSlice || other.X != ast.Expr(oc.id) || !slicesDisjoint(rc.tp, se, other) {
			return false
		}
	}
	return used
}

// slicesDisjoint proves [a.Low, a.High) and [b.Low, b.High) disjoint:
// one's upper bound equals the other's lower bound (nil Low is the
// start of the slice, nil High its end).
func slicesDisjoint(tp *typedPkg, a, b *ast.SliceExpr) bool {
	boundEq := func(hi, lo ast.Expr) bool {
		if hi == nil { // runs to the end: can never precede lo
			return false
		}
		if lo == nil { // starts at 0: hi == 0 only for a degenerate slice
			return isZeroExpr(hi)
		}
		return exprEq(tp, hi, lo)
	}
	return boundEq(a.High, b.Low) || boundEq(b.High, a.Low)
}

// ---------------------------------------------------------------------
// Write classification
// ---------------------------------------------------------------------

// memory classes for a write target's base.
type memKind int

const (
	memShared   memKind = iota
	memLocal            // region-local memory: no site needed
	memHanded           // handed to this invocation by the region contract
	memCheckout         // arena/box checkout: worker-local by checkout discipline
)

// memClass decides whose memory a write through obj's access path
// lands in.
func (rc *regionCheck) memClass(obj types.Object, steps []targetStep) memKind {
	if obj == nil {
		return memShared
	}
	if rc.r.handed[obj] || (rc.r.worker != nil && obj == rc.r.worker) {
		return memHanded
	}
	if v, ok := obj.(*types.Var); ok && isWorkerNamed(v.Type()) && rc.local(obj) {
		return memHanded // the invocation's own worker handle
	}
	if obj == rc.recv {
		return memShared // a RangeBody box is shared across invocations
	}
	if !rc.local(obj) {
		return memShared
	}
	if !crossesStorage(obj.Type(), steps) {
		return memLocal // the local variable itself, or storage inside it
	}
	switch rc.freshness(obj, 0) {
	case freshLocal:
		return memLocal
	case freshCheckout:
		return memCheckout
	}
	return memShared
}

type freshKind int

const (
	freshNot freshKind = iota
	freshLocal
	freshCheckout
)

// freshness reports whether a region-local variable's referent memory
// was created inside the region (make/new/composite), checked out from
// the worker's arena, or aliases something older.
func (rc *regionCheck) freshness(obj types.Object, depth int) freshKind {
	if depth > 6 || !rc.local(obj) {
		return freshNot
	}
	fx := rc.fact(obj)
	if fx.def == nil || fx.assigns > 0 || fx.isLoop {
		return freshNot
	}
	return rc.freshExpr(fx.def, depth)
}

func (rc *regionCheck) freshExpr(e ast.Expr, depth int) freshKind {
	e = unparen(e)
	if operand, fresh := rc.tp.memoryOf(e); fresh {
		return freshLocal
	} else if operand != nil {
		return rc.freshExpr(operand, depth+1)
	}
	switch v := e.(type) {
	case *ast.Ident:
		if v.Name == "nil" {
			return freshLocal
		}
		return rc.freshness(rc.tp.objOf(v), depth+1)
	case *ast.CallExpr:
		if pathStr, name, isPkg := callTarget(rc.f, v); isPkg && isPath(pathStr, arenaPath) {
			switch name {
			case "Alloc", "AllocUninit", "AcquireBox":
				return freshCheckout
			case "Of":
				return freshLocal
			}
		}
	}
	return freshNot
}

// classifyWrite classifies one write target and emits its site.
func (rc *regionCheck) classifyWrite(lhs ast.Expr) {
	if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return // the blank identifier stores nothing
	}
	target := types.ExprString(lhs)
	base, steps, ok := peelTarget(lhs)
	if !ok {
		rc.refuse(lhs, target, "write through unmodeled expression %s", target)
		return
	}
	obj := rc.tp.objOf(base)
	switch rc.memClass(obj, steps) {
	case memLocal:
		return
	case memHanded:
		detail := "handed slot"
		for _, st := range steps {
			if st.index != nil {
				detail = "handed chunk"
			}
		}
		rc.site(RaceWorkerLocal, detail, lhs, target)
		return
	case memCheckout:
		rc.site(RaceWorkerLocal, "arena checkout", lhs, target)
		return
	}

	// Shared memory. A held mutex guards anything.
	if rc.locks.locked() {
		rc.site(RaceLockGuarded, rc.locks.guard(), lhs, target)
		return
	}

	// Map writes are never safe unlocked.
	for _, st := range steps {
		if t := rc.tp.typeOf(st.of); st.index != nil && t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				rc.refuse(lhs, target, "concurrent map write to %s", target)
				return
			}
		}
	}

	// Index disjointness: the innermost index step that proves distinct
	// invocations reach distinct sub-objects certifies the whole path.
	var firstWhy string
	for _, st := range steps {
		if st.index == nil {
			continue
		}
		detail, why := rc.classifyIndex(st.index)
		if detail != "" {
			rc.site(RaceIndexDisjoint, detail, lhs, target)
			return
		}
		if firstWhy == "" {
			firstWhy = why
		}
	}

	// Join branches: state the sibling branch never touches is
	// exclusively this branch's for the duration of the join.
	if rc.r.sibling != nil && obj != nil && !rc.ff.mentionedIn(obj, rc.r.sibling) {
		rc.site(RaceWorkerLocal, "join-branch-exclusive", lhs, target)
		return
	}

	if firstWhy != "" {
		rc.refuse(lhs, target, "write to shared %s: %s", target, firstWhy)
		return
	}
	rc.refuse(lhs, target, "write to shared %s with no distinguishing index", target)
}

// ---------------------------------------------------------------------
// Site emission
// ---------------------------------------------------------------------

func (rc *regionCheck) site(class, detail string, at ast.Node, target string) {
	rc.sites = append(rc.sites, RaceSite{
		sitePos: rc.l.a.sitePos(rc.f, at),
		Func:    rc.fd.Name.Name, Region: rc.r.kind,
		Target: target, Class: class, Detail: detail,
	})
}

func (rc *regionCheck) refuse(at ast.Node, target, format string, args ...any) {
	rc.sites = append(rc.sites, RaceSite{
		sitePos: rc.l.a.sitePos(rc.f, at),
		Func:    rc.fd.Name.Name, Region: rc.r.kind,
		Target: target, Class: RaceRefused,
		Reason: fmt.Sprintf(format, args...),
		Marker: rc.l.a.markerFor(rc.f, at),
	})
}

// ---------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------

func atomicWritePrefix(name string) bool {
	for p := range atomicWriteMethods {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}
