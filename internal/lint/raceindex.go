package lint

// Index-disjointness subrules for the races pass: given a write
// xs[idx] to shared memory inside a parallel region, prove that
// distinct concurrent invocations produce distinct idx values.
//
// The foundation is a set of "task-distinguishing" variables — values
// the region contract guarantees are unique per concurrent invocation:
//
//	task-affine     the primitive's per-task index parameter
//	range-owner     a loop variable over the invocation's handed
//	                [lo, hi) subrange (For / RunRange contract)
//	block-owner     a loop variable over [t*B, t*B+B) for a
//	                task-distinguishing t (two-pass blocked kernels)
//	unique-handout  an atomic counter's Add(d)-d result, or c.Next(k)
//	                on the core.Cursor a CountSort half is handed
//	worker-owned    w.ID() of the invocation's own worker
//	residue-class   t + j*extent: distinct residues mod the region
//	                extent, with t in [0, extent)
//
// An index that is an affine function of exactly one
// task-distinguishing variable (nonzero coefficient) plus
// region-invariant terms inherits its disjointness: scaling a family
// of pairwise-disjoint integer sets by a nonzero constant and shifting
// them all by the same amount keeps them pairwise disjoint.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// classifyIndex proves idx unique per concurrent invocation.
// detail != "" names the successful subrule; otherwise why explains
// the failure.
func (rc *regionCheck) classifyIndex(idx ast.Expr) (detail, why string) {
	if d := rc.matchResidue(idx); d != "" {
		return d, ""
	}
	if d := rc.matchBlockScaled(idx); d != "" {
		return d, ""
	}
	if rc.matchUniqueHandout(idx) {
		return "unique-handout", ""
	}
	if rc.matchWorkerID(idx) {
		return "worker-owned", ""
	}
	sum, ok := rc.affine(idx)
	if !ok {
		return "", "index " + types.ExprString(idx) + " is not an affine form the analysis models"
	}
	var taskDetail string
	taskCount := 0
	for _, t := range sum.terms {
		if t.coef == 0 {
			continue
		}
		if t.obj != nil {
			if res := rc.taskDetail(t.obj); res.ok {
				taskCount++
				taskDetail = res.detail
				continue
			}
		}
		if rc.invariantTerm(t) {
			continue
		}
		return "", "index " + types.ExprString(idx) + " depends on " + t.name + ", which is neither task-distinguishing nor region-invariant"
	}
	switch taskCount {
	case 1:
		return taskDetail, ""
	case 0:
		return "", "index " + types.ExprString(idx) + " does not vary by task: concurrent invocations write the same element"
	default:
		return "", "index " + types.ExprString(idx) + " mixes several task-distinguishing variables"
	}
}

// taskDetail decides whether obj is task-distinguishing, memoized.
func (rc *regionCheck) taskDetail(obj types.Object) taskRes {
	if res, done := rc.taskMemo[obj]; done {
		return res
	}
	rc.taskMemo[obj] = taskRes{} // cut recursion
	res := rc.taskDetailUncached(obj)
	rc.taskMemo[obj] = res
	return res
}

func (rc *regionCheck) taskDetailUncached(obj types.Object) taskRes {
	if d, isTask := rc.r.task[obj]; isTask {
		return taskRes{detail: d, ok: true}
	}
	if lv := rc.loop(obj); lv != nil {
		if rc.isRangeOwnerLoop(lv) {
			return taskRes{detail: "range-owner", ok: true}
		}
		if rc.isBlockOwnerLoop(lv) {
			return taskRes{detail: "block-owner", ok: true}
		}
		return taskRes{}
	}
	fx := rc.fact(obj)
	if fx.def == nil || fx.assigns > 0 || !rc.owns(obj) {
		return taskRes{}
	}
	def := fx.def
	if rc.matchUniqueHandout(def) {
		return taskRes{detail: "unique-handout", ok: true}
	}
	if rc.matchWorkerID(def) {
		return taskRes{detail: "worker-owned", ok: true}
	}
	if inner := rc.varOf(def); inner != nil && inner != obj {
		return rc.taskDetail(inner)
	}
	return taskRes{}
}

// isRangeOwnerLoop: the loop runs over the invocation's handed
// subrange [lo, hi) (Worker.For / RunRange contract: subranges handed
// to concurrent invocations are disjoint).
func (rc *regionCheck) isRangeOwnerLoop(lv *loopShape) bool {
	if rc.r.rangeLo == nil || rc.r.rangeHi == nil {
		return false
	}
	return rc.varOf(lv.lo) == rc.r.rangeLo && rc.varOf(lv.hi) == rc.r.rangeHi
}

// isBlockOwnerLoop: the loop runs over [t*B, t*B+B) — possibly capped
// from above — for a task-distinguishing t, so concurrent invocations
// own disjoint blocks. Matches both the symbolic two-pass scan shape
// (blo := ci*s.block; bhi := min(blo+s.block, n)) and the constant
// shape (base := wi*64; hi := base+64 with a shrink guard).
func (rc *regionCheck) isBlockOwnerLoop(lv *loopShape) bool {
	if lv.hi == nil {
		return false
	}
	loF := rc.foldIdent(lv.lo, false)
	t, stride := rc.matchProduct(loF)
	if t == nil {
		return false
	}
	for _, cand := range rc.minCandidates(rc.foldIdent(lv.hi, true)) {
		if rc.blockEnd(cand, lv.lo, loF, t, stride) {
			return true
		}
	}
	// Constant-coefficient fallback: lo and hi affine over the same
	// single task variable with equal coefficient a and 0 < hi-lo <= a.
	lo, okLo := rc.affine(lv.lo)
	hi, okHi := rc.affine(rc.foldIdent(lv.hi, true))
	if !okLo || !okHi || len(lo.terms) != len(hi.terms) {
		return false
	}
	var coef int64
	seen := 0
	for _, t1 := range lo.terms {
		t2 := hi.find(t1)
		if t2 == nil || t2.coef != t1.coef {
			return false
		}
		if t1.obj != nil && rc.taskDetail(t1.obj).ok {
			seen++
			coef = t1.coef
			continue
		}
		if !rc.invariantTerm(t1) {
			return false
		}
	}
	if seen != 1 || coef <= 0 {
		return false
	}
	d := hi.k - lo.k
	return d > 0 && d <= coef
}

// blockEnd reports whether hi closes the block that lo = t*S opens
// (loF is lo folded through its definitions): hi = lo + S or
// hi = (t+1) * S.
func (rc *regionCheck) blockEnd(hi, lo, loF ast.Expr, t types.Object, stride ast.Expr) bool {
	for _, ord := range rc.commuted(hi, token.ADD) {
		if exprEq(rc.tp, ord[1], stride) && (exprEq(rc.tp, ord[0], lo) || exprEq(rc.tp, ord[0], loF)) {
			return true
		}
	}
	for _, ord := range rc.commuted(hi, token.MUL) {
		if !exprEq(rc.tp, ord[1], stride) {
			continue
		}
		if ps, ok := rc.affine(ord[0]); ok && ps.k == 1 && len(ps.terms) == 1 && ps.terms[0].coef == 1 && ps.terms[0].obj == t {
			return true
		}
	}
	return false
}

// varOf resolves an expression that is (a conversion of) a plain
// variable to its object, nil otherwise.
func (rc *regionCheck) varOf(e ast.Expr) types.Object {
	if id, ok := rc.unwrapConv(e).(*ast.Ident); ok {
		return rc.tp.objOf(id)
	}
	return nil
}

// commuted returns both operand orders of e when it is (a conversion
// of) a binary expression with the given commutative operator.
func (rc *regionCheck) commuted(e ast.Expr, op token.Token) [][2]ast.Expr {
	be, ok := rc.unwrapConv(e).(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return nil
	}
	return [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}}
}

// matchProduct matches t*S (or S*t) with t task-distinguishing,
// returning t and the stride expression.
func (rc *regionCheck) matchProduct(e ast.Expr) (types.Object, ast.Expr) {
	for _, ord := range rc.commuted(e, token.MUL) {
		if obj := rc.varOf(ord[0]); obj != nil && rc.taskDetail(obj).ok {
			return obj, ord[1]
		}
	}
	return nil, nil
}

// minCandidates unwraps min(a, b, ...) calls: a loop bound capped by
// min only shrinks the block.
func (rc *regionCheck) minCandidates(e ast.Expr) []ast.Expr {
	call, ok := rc.unwrapConv(e).(*ast.CallExpr)
	if ok {
		if id, isID := unparen(call.Fun).(*ast.Ident); isID && id.Name == "min" {
			return call.Args
		}
	}
	return []ast.Expr{e}
}

// matchResidue matches t + j*extent (either operand order, either
// factor order): with t the region's per-task index in [0, extent), or
// a loop variable over the handed subrange of a region ranging [0, extent),
// all writes of task t land in the residue class t mod extent.
func (rc *regionCheck) matchResidue(idx ast.Expr) string {
	if rc.r.extent == nil {
		return ""
	}
	for _, ord := range rc.commuted(idx, token.ADD) {
		// The [0, extent) bound holds for the seed index and for a loop
		// over the invocation's handed subrange of [0, extent).
		t := rc.varOf(ord[0])
		if _, seed := rc.r.task[t]; !seed {
			if lv := rc.loop(t); lv == nil || !rc.isRangeOwnerLoop(lv) {
				continue
			}
		}
		for _, mord := range rc.commuted(ord[1], token.MUL) {
			if exprEq(rc.tp, mord[0], rc.r.extent) {
				return "residue-class"
			}
		}
	}
	return ""
}

// matchBlockScaled matches t*S + j with t task-distinguishing and j a
// loop variable over [0, S): task t owns the block [t*S, (t+1)*S).
func (rc *regionCheck) matchBlockScaled(idx ast.Expr) string {
	for _, ord := range rc.commuted(idx, token.ADD) {
		lv := rc.loop(rc.varOf(ord[0]))
		if lv == nil || lv.hi == nil || !isZeroExpr(lv.lo) {
			continue
		}
		if t, stride := rc.matchProduct(ord[1]); t != nil && exprEq(rc.tp, stride, lv.hi) {
			return "block-scaled"
		}
	}
	return ""
}

// matchBlockWindow matches the window handout buf[t*S : h : (t+1)*S]
// with t task-distinguishing and S region-invariant: the three-index
// slice caps the window's capacity, so a callee that writes through it,
// append included, reaches only [t*S, (t+1)*S) of buf, the block task t
// owns.
func (rc *regionCheck) matchBlockWindow(e ast.Expr) bool {
	sl, ok := unparen(e).(*ast.SliceExpr)
	if !ok || !sl.Slice3 {
		return false
	}
	loF := rc.foldIdent(sl.Low, false)
	t, stride := rc.matchProduct(loF)
	if t == nil || !rc.invariantExpr(stride) {
		return false
	}
	return rc.blockEnd(rc.foldIdent(sl.Max, false), sl.Low, loF, t, stride)
}

// invariantExpr reports whether e has the same value in every
// concurrent invocation of the region.
func (rc *regionCheck) invariantExpr(e ast.Expr) bool {
	sum, ok := rc.affine(e)
	if !ok {
		return false
	}
	for _, t := range sum.terms {
		if t.obj != nil && rc.taskDetail(t.obj).ok || !rc.invariantTerm(t) {
			return false
		}
	}
	return true
}

// matchUniqueHandout matches C.Add(d)-d / atomic.AddX(&C, d)-d for a
// shared scalar atomic counter C, and c.Next(k) on the region's own
// handed core.Cursor: every evaluation yields a distinct value. The
// cursor's is CountSort's contract — each block's cursor walks a
// segment of each key's slots no other block's enters — which the
// engine checks under ModeChecked.
func (rc *regionCheck) matchUniqueHandout(e ast.Expr) bool {
	if call, ok := rc.unwrapConv(e).(*ast.CallExpr); ok {
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel || sel.Sel.Name != "Next" || !isNamed(rc.tp.typeOf(sel.X), corePath, "Cursor") {
			return false
		}
		id, isID := unparen(sel.X).(*ast.Ident)
		return isID && rc.r.handed[rc.tp.objOf(id)]
	}
	sub, ok := rc.unwrapConv(e).(*ast.BinaryExpr)
	if !ok || sub.Op != token.SUB {
		return false
	}
	call, ok := unparen(sub.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	var counter ast.Expr
	var delta ast.Expr
	if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Add" &&
		isNamed(rc.tp.typeOf(sel.X), atomicPath) && len(call.Args) == 1 {
		counter, delta = sel.X, call.Args[0]
	} else if pathStr, name, isPkg := callTarget(rc.f, call); isPkg &&
		isPath(pathStr, atomicPath) && len(name) > 3 && name[:3] == "Add" && len(call.Args) == 2 {
		un, isUn := unparen(call.Args[0]).(*ast.UnaryExpr)
		if !isUn || un.Op != token.AND {
			return false
		}
		counter, delta = un.X, call.Args[1]
	} else {
		return false
	}
	if !exprEq(rc.tp, delta, sub.Y) {
		return false
	}
	// The counter must be a shared scalar: an element of a counter
	// array has per-element sequences that can collide across elements.
	base, steps, ok := peelTarget(counter)
	if !ok {
		return false
	}
	for _, st := range steps {
		if st.index != nil {
			return false
		}
	}
	return rc.path(base, steps, nil) == memShared
}

// matchWorkerID matches w.ID() on the invocation's own worker: two
// concurrent invocations on distinct workers get distinct ids, and two
// invocations on the same worker run sequentially.
func (rc *regionCheck) matchWorkerID(e ast.Expr) bool {
	call, ok := rc.unwrapConv(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ID" {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok || rc.r.worker == nil {
		return false
	}
	return rc.tp.objOf(id) == rc.r.worker
}

// ---------------------------------------------------------------------
// Affine parsing
// ---------------------------------------------------------------------

// affine decomposes an index expression with the shared parser:
// conversions are transparent for index arithmetic, and
// single-definition locals that are not task-distinguishing fold
// through their definitions.
func (rc *regionCheck) affine(e ast.Expr) (*affine, bool) {
	return affineEnv{tp: rc.tp, norm: rc.unwrapConv, fold: func(obj types.Object) ast.Expr {
		if !rc.taskDetail(obj).ok && rc.foldable(obj) {
			return rc.fact(obj).def
		}
		return nil
	}}.parse(e)
}

// foldable reports whether an identifier can be replaced by its
// single straight-line definition.
func (rc *regionCheck) foldable(obj types.Object) bool {
	if !rc.owns(obj) {
		return false
	}
	fx := rc.fact(obj)
	return fx.def != nil && fx.assigns == 0 && !fx.isLoop && !fx.addrTaken
}

// foldIdent resolves an identifier chain through single definitions.
// allowShrink additionally accepts variables whose only reassignments
// are shrink guards (caps that only lower the value).
func (rc *regionCheck) foldIdent(e ast.Expr, allowShrink bool) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return e
		}
		obj := rc.tp.objOf(id)
		if !rc.owns(obj) {
			return e
		}
		fx := rc.fact(obj)
		if fx.def == nil || fx.isLoop || fx.addrTaken {
			return e
		}
		if fx.assigns > 0 && !(allowShrink && fx.shrinkOnly) {
			return e
		}
		e = fx.def
	}
	return e
}

// invariantTerm reports whether a term's value is the same for every
// concurrent invocation of the region.
func (rc *regionCheck) invariantTerm(t *affTerm) bool {
	if t.obj != nil {
		if rc.owns(t.obj) {
			return false // unfoldable local: varies within the region
		}
		return rc.fact(t.obj).assigns == 0
	}
	// Selector / len atom: invariant unless the region assigns it.
	return t.canon == "" || !rc.fieldWr[t.canon]
}

// unwrapConv strips parens and type conversions.
func (rc *regionCheck) unwrapConv(e ast.Expr) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		e = unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || !rc.tp.isConversion(call) {
			return e
		}
		e = call.Args[0]
	}
	return e
}
