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

// regionCheck is the region sink: the writes of one region, rooted in
// the region's frame, with the proofs only a region can make.
type regionCheck struct {
	rooting // ff: def-use facts of the enclosing function
	fd      *ast.FuncDecl
	r       *raceRegion
	sites   []RaceSite

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
	rc := &regionCheck{
		rooting: rooting{l: l, tp: tp, f: f, ff: l.factsOf(tp, fd)},
		fd:      fd, r: r,
		facts:    map[types.Object]*raceFact{},
		fieldWr:  map[string]bool{},
		taskMemo: map[types.Object]taskRes{},
	}
	rc.frame = rc
	return rc
}

func (rc *regionCheck) run() {
	if rc.r.body == nil {
		return
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

// owns reports whether obj lives inside one invocation of the region:
// declared in its body, or one of the parameters the region contract
// hands the invocation. A RunRange receiver is not: the box is shared
// across invocations.
func (rc *regionCheck) owns(obj types.Object) bool {
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

// handed reports the parameters the region contract hands the
// invocation exclusively, and the invocation's own worker.
func (rc *regionCheck) handed(obj types.Object, _ map[int]bool) bool {
	return rc.r.handed[obj] || (rc.r.worker != nil && obj == rc.r.worker)
}

// loop returns the counted-loop header of a region-local loop variable.
func (rc *regionCheck) loop(obj types.Object) *loopShape {
	if !rc.owns(obj) {
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
	if _, prim := primitiveOf(rc.f, call); prim != nil && len(prim.bodies) > 0 {
		return // nested primitive: its body is a region of its own
	}
	if pathStr, name, isPkg := callTarget(rc.f, call); isPkg && isMQDriver(pathStr, name) {
		return
	}
	// Worker fork points.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isWorkerNamed(rc.tp.typeOf(sel.X)) {
			switch sel.Sel.Name {
			case "For", "ForBody", "Join":
				return // fork points: bodies are regions of their own
			}
		}
	}
	// Delegated calls (func values, interface methods) own their
	// writes; everything else reports through the dispatcher.
	rc.l.callWrites(rc.tp, rc.f, rc.ff, call, func(ev writeEvent) bool { return rc.callWrite(call, ev) })
}

// callWrite classifies one write event of a call.
func (rc *regionCheck) callWrite(call *ast.CallExpr, ev writeEvent) bool {
	switch {
	case ev.shared != "":
		// A callee writing shared state is refused whatever it is
		// handed; its argument positions add nothing.
		if !rc.guarded(call, ev.via.Name()+"()") {
			rc.refuse(call, ev.via.Name()+"()",
				"calls %s, which writes shared state (%s) without synchronization", ev.via.Name(), ev.shared)
		}
		return false
	case ev.via != nil:
		if ev.plain || ev.atomic {
			rc.argWrite(ev)
		}
	case !ev.plain:
		rc.site(RaceAtomic, ev.op, call, types.ExprString(ev.target))
	case ev.op == "delete":
		rc.refuse(call, types.ExprString(ev.target),
			"delete on %s: concurrent map mutation", types.ExprString(ev.target))
	case ev.op == "append":
		// Unless x is a window capped to the task, append(x, ...)
		// writes into x's root, reslices peeled: append(xs[lo:hi], v)
		// writes xs[hi].
		dst := unparen(ev.target)
		if rc.matchBlockWindow(dst) {
			rc.site(RaceIndexDisjoint, "block-scaled", call, types.ExprString(dst))
			return true
		}
		for sl, ok := dst.(*ast.SliceExpr); ok; sl, ok = dst.(*ast.SliceExpr) {
			dst = unparen(sl.X)
		}
		rc.bulkWrite(call, dst, "append")
	default:
		rc.bulkWrite(call, ev.target, ev.op)
	}
	return true
}

// bulkWrite classifies a whole-slice write (a copy or append
// destination, a standard-library mutator's argument).
func (rc *regionCheck) bulkWrite(at ast.Node, dst ast.Expr, what string) {
	// xs[lo:hi] over the invocation's handed subrange is its own window
	// of xs: the subranges handed to concurrent invocations are disjoint.
	if sl, isSlice := unparen(dst).(*ast.SliceExpr); isSlice && rc.r.rangeLo != nil && sl.Max == nil &&
		sl.Low != nil && rc.varOf(sl.Low) == rc.r.rangeLo && sl.High != nil && rc.varOf(sl.High) == rc.r.rangeHi {
		rc.site(RaceIndexDisjoint, "range-owner", at, types.ExprString(dst))
		return
	}
	target := types.ExprString(dst)
	base, elem, ok := peelElem(dst)
	switch {
	case !ok:
		rc.refuse(at, target, "%s into unresolved destination %s", what, target)
	case rc.owned(rc.path(base, elem, nil), "handed chunk", at, target), rc.guarded(at, target):
	default:
		rc.refuse(at, target, "%s into shared %s: destination range not provably task-owned", what, target)
	}
}

// argWrite classifies an argument a callee's summary writes through:
// it must hand the callee task-owned memory; positions the summary
// proves read-only may carry shared data (the decoder reading a shared
// compressed row into a task-owned buffer) and never get here. Sites
// anchor at the argument, not the call, so one call can carry several
// verdicts.
func (rc *regionCheck) argWrite(ev writeEvent) {
	arg, target := ev.target, types.ExprString(ev.target)
	_, _, ok := peelTarget(arg)
	switch {
	case rc.joinDisjointSlice(arg):
		rc.site(RaceWorkerLocal, "join-disjoint-slices", arg, target)
	case rc.matchBlockWindow(arg):
		rc.site(RaceIndexDisjoint, "block-scaled", arg, target)
	case !ok:
		rc.refuse(arg, target, "passes %s to %s, which writes through its parameters", target, ev.via.Name())
	case rc.root(arg, 0, nil) != memShared:
		// task-owned memory: the callee's writes stay in the invocation
	case ev.atomic && !ev.plain:
		rc.site(RaceAtomic, ev.op, arg, target)
	case rc.guarded(arg, target):
	default:
		rc.refuse(arg, target, "passes shared %s to %s, which writes through its parameters", target, ev.via.Name())
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

// classifyWrite classifies one write target and emits its site.
func (rc *regionCheck) classifyWrite(lhs ast.Expr) {
	target := types.ExprString(lhs)
	base, steps, ok := peelTarget(lhs)
	if !ok {
		rc.refuse(lhs, target, "write through unmodeled expression %s", target)
		return
	}
	handed := "handed slot"
	for _, st := range steps {
		if st.index != nil {
			handed = "handed chunk"
		}
	}
	// Shared memory. A held mutex guards anything.
	if rc.owned(rc.path(base, steps, nil), handed, lhs, target) || rc.guarded(lhs, target) {
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
	if obj := rc.tp.objOf(base); rc.r.sibling != nil && obj != nil && !rc.ff.mentionedIn(obj, rc.r.sibling) {
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

// owned emits the worker-local site of a write to memory the
// invocation owns — handed, the detail for a handed slot or chunk — and
// reports whether the memory was the invocation's; fresh memory needs
// no site.
func (rc *regionCheck) owned(kind memKind, handed string, at ast.Node, target string) bool {
	switch kind {
	case memHanded:
		rc.site(RaceWorkerLocal, handed, at, target)
	case memCheckout:
		rc.site(RaceWorkerLocal, "arena checkout", at, target)
	case memShared:
		return false
	}
	return true
}

// guarded emits the lock-guarded site of a shared write made while a
// mutex is held.
func (rc *regionCheck) guarded(at ast.Node, target string) bool {
	if rc.locks.locked() {
		rc.site(RaceLockGuarded, rc.locks.guard(), at, target)
	}
	return rc.locks.locked()
}

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
