package lint

// Interprocedural callee summaries, shared by the races and lifetimes
// passes: when a parallel region calls an in-module function, the
// region's safety depends on what that function writes, and a checkout
// handed to it lives only as long as nothing the function does keeps
// it. effectOf summarizes a callee once, in the loader's summary table
// (core.go), from one body walk — a sink of the shared call dispatcher
// and rooting rule (writes.go), rooting in the callee's frame, where
// every parameter is handed memory with a position:
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
// where the one store rule says a store keeps (writes.go keeps: a
// package-level variable, or memory below another parameter or shared
// state, unless through a cleared transit field), handed to a dynamic
// callee the hand-off rule keeps (writes.go handOff), or kept by an
// in-module callee. The substrate packages retain nothing by
// documented contract.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
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

	// returns names the first result carrying memory the callee did
	// not get from its parameters: its callers root the call's result
	// as shared.
	returns string
}

// kept reports why the callee keeps the memory at position idx past
// the call, or "" when it lets go.
func (e *writeEffect) kept(idx int) string {
	return e.keeps[idx]
}

// sameShape reports whether two effects write and keep the same
// positions, whatever their reasons say: a reason may quote a cycle
// partner's, so it can grow every round of a fixpoint that has settled.
func (e *writeEffect) sameShape(o *writeEffect) bool {
	return e.paramPlain == o.paramPlain && e.paramAtomic == o.paramAtomic &&
		e.plainAll == o.plainAll && e.atomicAll == o.atomicAll &&
		(e.shared == "") == (o.shared == "") && (e.returns == "") == (o.returns == "") &&
		maps.Equal(e.plainIdx, o.plainIdx) && maps.Equal(e.atomicIdx, o.atomicIdx) &&
		maps.EqualFunc(e.keeps, o.keeps, func(string, string) bool { return true })
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

// effectOf returns fn's memoized write effect. A recursive cycle is
// iterated to its fixpoint (summaryTable): a query that re-enters a
// function still being summarized reads its latest effect, the empty
// one at first, and the cycle is rebuilt until no member's effect
// grows, so every member's summary is exact, whichever is asked first.
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
		rooting: rooting{l: l, tp: d.tp, f: d.f, ff: l.factsOf(d.tp, d.fd),
			frame: funcFrame(d.tp.paramPositions(d.fd.Recv, d.fd.Type.Params)), cleared: map[string]bool{},
			lits: map[types.Object][]ast.Expr{}},
		fd:  d.fd,
		eff: &writeEffect{},
	}
	nilClears(d.tp, d.fd.Body, func(key string) { w.cleared[key] = true })
	ast.Inspect(d.fd.Body, w.visit)
	if isSubstrate(fn.Pkg().Path()) {
		w.eff.keeps = nil
	}
	return w.eff
}

// isSubstrate reports a substrate package, whose primitives fill
// out-params for the duration of the call and retain nothing, by
// documented contract. Their summaries carry no retention, and so say
// nothing of what a callback does with the memory a primitive hands it.
func isSubstrate(path string) bool {
	return isPath(path, corePath) || isPath(path, schedPath) || isPath(path, mqPath) ||
		isPath(path, specforPath) || isPath(path, arenaPath)
}

// ---------------------------------------------------------------------
// The callee body walk
// ---------------------------------------------------------------------

// effWalk is the summary sink: it roots the callee's writes and the
// calls' write events in the callee's frame and folds them into eff.
type effWalk struct {
	rooting
	fd    *ast.FuncDecl
	eff   *writeEffect
	locks lockTracker // writes under a held lock are the callee's business
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
				if base, steps, ok := peelTarget(lhs); ok {
					w.store(base, steps, v.Rhs[i])
				}
			}
		}
	case *ast.SendStmt:
		w.keep(v.Value, "sent on a channel")
	case *ast.ReturnStmt:
		w.returned(v)
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
		if w.locks.op(w.tp, v, false) {
			return false
		}
		w.claimLits(v)
		if w.l.callWrites(w.tp, w.f, w.ff, v, func(ev writeEvent) bool { return w.callWrite(v, ev) }) {
			if why := handOff(w.tp, w.ff, v); why != "" {
				for _, a := range v.Args {
					w.keep(a, why)
				}
			}
		}
	}
	return true
}

// write folds one assignment target in the callee into the summary.
func (w *effWalk) write(lhs ast.Expr) {
	base, steps, ok := peelTarget(lhs)
	if !ok {
		w.sharedAt(lhs, "writes through unmodeled expression "+types.ExprString(lhs))
		return
	}
	ps := map[int]bool{}
	w.emit(w.path(base, steps, ps), lhs, false, ps)
}

// returned records a result of the callee itself (not of a literal
// inside it) whose memory roots at shared state.
func (w *effWalk) returned(ret *ast.ReturnStmt) {
	for n := w.ff.parent[ret]; n != nil; n = w.ff.parent[n] {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return
		}
	}
	res := w.tp.objOf(w.fd.Name).Type().(*types.Signature).Results()
	for i := 0; i < res.Len() && w.eff.returns == ""; i++ {
		if !holdsRef(res.At(i).Type()) {
			continue
		}
		kind, what := memShared, res.At(i).Name()
		switch len(ret.Results) {
		case 0: // a bare return: the named result
			kind = w.rootVar(res.At(i), nil, 0, nil)
		case res.Len():
			kind, what = w.root(ret.Results[i], 0, nil), types.ExprString(ret.Results[i])
		default: // return f(...) of a multi-valued call
			kind, what = w.root(ret.Results[0], 0, nil), types.ExprString(ret.Results[0])
		}
		if kind == memShared {
			w.eff.returns = "returns " + what
		}
	}
}

// callWrite folds one write event of a call into the summary: the
// sub-callee's retentions and parameter writes map through this call's
// arguments at the positions they reach only.
func (w *effWalk) callWrite(call *ast.CallExpr, ev writeEvent) bool {
	if ev.shared != "" {
		if !w.locks.locked() {
			w.sharedAt(call, "calls "+ev.via.Name()+", which "+ev.shared)
		}
		return true
	}
	if ev.kept != "" {
		w.keep(ev.target, "via "+ev.via.Name()+": "+ev.kept)
	}
	if base, steps, ok := peelElem(ev.target); ok {
		for _, v := range ev.stored {
			w.store(base, steps, v)
		}
	}
	for _, atomic := range []bool{false, true} {
		if atomic && ev.atomic || !atomic && ev.plain {
			ps := map[int]bool{}
			w.emit(w.root(ev.target, 0, ps), call, atomic, ps)
		}
	}
	return true
}

// emit folds one rooted write into the summary. ps carries the
// parameter positions the write's memory can be rooted at; empty with
// kind memHanded means attribution failed and every position is
// tainted.
func (w *effWalk) emit(kind memKind, at ast.Expr, atomic bool, ps map[int]bool) {
	switch kind {
	case memHanded:
		if atomic {
			w.eff.paramAtomic = true
			w.eff.atomicAll = w.eff.atomicAll || len(ps) == 0
			addIdx(&w.eff.atomicIdx, ps)
		} else if !w.locks.locked() {
			w.eff.paramPlain = true
			w.eff.plainAll = w.eff.plainAll || len(ps) == 0
			addIdx(&w.eff.plainIdx, ps)
		}
	case memShared:
		if !atomic && !w.locks.locked() {
			w.sharedAt(at, "writes "+types.ExprString(at))
		}
	}
}

func addIdx(dst *map[int]bool, ps map[int]bool) {
	for i := range ps {
		if *dst == nil {
			*dst = map[int]bool{}
		}
		(*dst)[i] = true
	}
}

func (w *effWalk) sharedAt(at ast.Node, what string) {
	if w.eff.shared != "" {
		return
	}
	pos := w.l.a.fset.Position(at.Pos())
	w.eff.shared = fmt.Sprintf("%s at %s:%d", what, w.f.rel, pos.Line)
}

// store records the retention a store of rhs through the access path
// steps from base causes, by the one store rule (keeps): a parameter
// stored into its own memory stays put.
func (w *effWalk) store(base *ast.Ident, steps []targetStep, rhs ast.Expr) {
	holders := map[int]bool{}
	if why, _ := w.keeps(base, steps, holders); why != "" {
		for pi := range w.keptBy(rhs) {
			if len(holders) != 1 || !holders[pi] {
				w.eff.keep(pi, why)
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
// may carry — the one rooting rule, widened for retention.
func (w *effWalk) keptBy(e ast.Expr) map[int]bool {
	ps := map[int]bool{}
	w.carried(e, 0, ps)
	return ps
}

// claimLits registers, before Inspect descends into the literal
// bodies, the closure parameters whose memory the call decides: at a
// core primitive's handed positions they alias elements of the
// primitive's out argument, and a literal invoked in place receives
// its arguments (a variadic parameter all the trailing ones).
func (w *effWalk) claimLits(call *ast.CallExpr) {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		objs := w.tp.paramObjs(lit.Type.Params)
		for i, arg := range call.Args {
			p := objs[min(i, len(objs)-1)]
			w.lits[p] = append(w.lits[p], arg)
		}
		return
	}
	_, prim := primitiveOf(w.f, call)
	if prim == nil || len(prim.handed) == 0 || len(call.Args) <= prim.bodies[0] {
		return
	}
	lit, ok := unparen(call.Args[prim.bodies[0]]).(*ast.FuncLit)
	if !ok {
		// A body the walk cannot see may write through every element
		// handed to it.
		ps := map[int]bool{}
		w.emit(w.root(call.Args[prim.out], 0, ps), call, false, ps)
		return
	}
	for _, hi := range prim.handed {
		p := w.tp.paramAt(lit.Type.Params, hi)
		w.lits[p] = append(w.lits[p], call.Args[prim.out])
	}
}
