package lint

// Interprocedural helper summaries for the offset-provenance engine,
// one memo and one build for the two questions the prover asks of an
// in-module helper.
//
// Offsets. When a certification site's offsets come straight out of a
// helper — offsets := descending(n), offs, total := buckets(w, keys) —
// the summary builder locates the helper's declaration, re-runs the
// provenance proof on the returned slice at the helper's single return
// statement (with a capture sink instead of a site sink), and expresses
// the proved domain bound in terms the caller can check: a constant, a
// parameter, the length of a slice parameter, or a sibling result (the
// scan proof's returned total).
//
// Non-negativity. The scan proof demands that every value written into
// the offsets before the prefix sum is provably >= 0, and real encoders
// compute those values in a helper — the compressed-CSR builder fills
// `offsets[v+1] = int64(encRowSize(v, row))` three calls deep in the
// codec. nnExpr asks whether every value the helper returns is
// non-negative, whatever its arguments: the same fixpoint (ensureNN)
// runs inside the helper and checks each return with nnExpr there.
// Parameters are never in the helper's assumption set unless unsigned,
// so a "yes" holds for all inputs.
//
// Summaries are memoized per (function, result, question) on the type
// loader, so helper-of-helper chains resolve naturally. The one cycle
// answer is "unproven", a refusal for both questions: a proof that
// leaned on its own conclusion would certify an unchecked scatter.
// Everything stays refusal-biased: variadic helpers, helpers with
// multiple or conditional returns, bounds not expressible in the
// helper's own parameters, and receiver state are all refused.

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/core"
)

type boundKind int

const (
	boundConst    boundKind = iota // a compile-time constant
	boundParam                     // the k-th parameter's value
	boundLenParam                  // len(k-th parameter)
	boundResult                    // the j-th result (a scan's total)
)

// boundRef is a domain bound expressed against the helper's signature.
type boundRef struct {
	kind boundKind
	k    int   // parameter / result index
	c    int64 // boundConst value
}

// sumKey identifies one memoized summary: a helper's result and the
// question asked of it. The pattern matters because the proof forms
// accept different patterns (a scan proof certifies RngInd only, a
// permutation proof SngInd only); pattern 0 asks for non-negativity.
type sumKey struct {
	fn      *types.Func
	res     int
	pattern core.Pattern
}

// fnSummary is the result of summarizing one helper result.
type fnSummary struct {
	ok       bool
	reason   string // refusal chain when !ok
	source   string // packindex | affine-fill | permutation | scan
	chain    []string
	bound    boundRef
	declLine int
}

func refusedSummary(format string, args ...any) *fnSummary {
	return &fnSummary{reason: fmt.Sprintf(format, args...)}
}

// proveViaSummary handles the interprocedural dispatch arm of proveVar:
// the offsets variable is defined as (one result of) an in-module call
// and never mutated afterwards. handled=false means the callee is not
// summarizable territory (out of module, unresolvable) and the generic
// refusal applies.
func (p *prover) proveViaSummary(pt *provePoint, name string, def *use, call *ast.CallExpr) (siteProof, bool) {
	fn := resolveCall(p.tp, call, nil).fn
	if fn == nil || !p.a.inModule(fn) {
		return siteProof{}, false
	}
	fnName := fn.Name()
	sum := p.loader.summaryFor(fn, def.resIdx, pt.pattern)
	if !sum.ok {
		return refusal("offsets %q := %s(...): %s", name, fnName, sum.reason), true
	}
	if !p.dominates(call.End(), pt) {
		return refusal("call site does not strictly follow the %s call", fnName), true
	}

	// Map the helper-relative bound into the caller and check it: each
	// arm names the caller-side bound, what a mismatch means, and the
	// proof line a match earns.
	var why, boundLine string
	k := sum.bound.k
	if (sum.bound.kind == boundParam || sum.bound.kind == boundLenParam) && k >= len(call.Args) {
		return refusal("the %s call has fewer arguments than its signature expects", fnName), true
	}
	switch sum.bound.kind {
	case boundConst:
		why = pt.sink.matchLen(p, lenDenot{cval: sum.bound.c, hasC: true},
			fmt.Sprintf("cannot prove len(target) equals %s's constant domain bound %d", fnName, sum.bound.c))
		boundLine = fmt.Sprintf("len(target) == %s's constant domain bound %d: every offset is in bounds", fnName, sum.bound.c)
	case boundParam:
		why = pt.sink.matchLen(p, lenDenot{expr: call.Args[k]},
			fmt.Sprintf("cannot prove len(target) equals the bound passed to %s (argument %d)", fnName, k+1))
		boundLine = fmt.Sprintf("len(target) == the domain bound passed to %s (argument %d): every offset is in bounds", fnName, k+1)
	case boundLenParam:
		argID, isID := unparen(call.Args[k]).(*ast.Ident)
		if !isID {
			return refusal("the slice whose length bounds %s's output (argument %d) is not a simple variable at the call", fnName, k+1), true
		}
		argObj := p.tp.objOf(argID)
		if argObj == nil || !p.stableObj(argObj) {
			return refusal("the slice whose length bounds %s's output (argument %d) does not have a stable header", fnName, k+1), true
		}
		why = pt.sink.matchLen(p, lenDenot{lenOf: argObj},
			fmt.Sprintf("cannot prove len(target) equals len(%s) passed to %s", argID.Name, fnName))
		boundLine = fmt.Sprintf("len(target) == len(%s) passed to %s: every offset is in bounds", argID.Name, fnName)
	case boundResult:
		if def.tupleLhs == nil || k >= len(def.tupleLhs) {
			return refusal("%s's bounding total (result %d) is discarded at the call", fnName, k+1), true
		}
		sibID, isID := unparen(def.tupleLhs[k]).(*ast.Ident)
		if !isID {
			return refusal("%s's bounding total (result %d) is not bound to a simple variable", fnName, k+1), true
		}
		sibObj := p.tp.objOf(sibID)
		if sibObj == nil || !p.stableObj(sibObj) {
			return refusal("%s's bounding total %q is not a stable variable", fnName, sibID.Name), true
		}
		why = pt.sink.matchLen(p, lenDenot{expr: sibID}, fmt.Sprintf("cannot prove len(target) equals %s's returned total %q", fnName, sibID.Name))
		boundLine = fmt.Sprintf("len(target) == %s's returned total %q: boundaries are in bounds", fnName, sibID.Name)
	}
	if why != "" {
		return refusal("%s", why), true
	}

	chain := []string{fmt.Sprintf("offsets %q := %s(...) at line %d: certified by the interprocedural summary of %s (declared at line %d)",
		name, fnName, p.line(def.pos), fnName, sum.declLine)}
	for _, c := range sum.chain {
		chain = append(chain, fnName+": "+c)
	}
	chain = append(chain, "no writes, aliases, or reorderings after the helper returns", boundLine)
	return siteProof{ok: true, source: sum.source, property: pt.property, chain: chain}, true
}

// summaryFor computes (memoized) the summary for result res of the
// in-module function fn under the given pattern (0: non-negativity); a
// non-ok summary carries the refusal reason. A recursive query gets the
// cycle answer, a refusal: summaries never cross back edges.
func (l *typeLoader) summaryFor(fn *types.Func, res int, pattern core.Pattern) *fnSummary {
	return l.sums.get(sumKey{fn: fn, res: res, pattern: pattern},
		refusedSummary("helper %s is recursive; summaries do not cross back edges", fn.Name()),
		func() *fnSummary { return l.buildSummary(fn, res, pattern) })
}

// nonNegative reports whether fn provably returns only non-negative
// values, whatever its arguments; false means unproven, never negative.
func (l *typeLoader) nonNegative(fn *types.Func) bool { return l.summaryFor(fn, 0, 0).ok }

func (l *typeLoader) buildSummary(fn *types.Func, res int, pattern core.Pattern) *fnSummary {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return refusedSummary("helper %s has no resolvable signature", name)
	}
	if sig.Variadic() {
		return refusedSummary("helper %s is variadic; argument positions cannot be mapped", name)
	}
	if sig.Results().Len() <= res {
		return refusedSummary("helper %s does not return a value at position %d", name, res+1)
	}
	if pattern == 0 && (sig.Recv() != nil || sig.Results().Len() != 1 || !isIntType(sig.Results().At(0).Type())) {
		return refusedSummary("helper %s has a receiver, whose state is not modeled, or no single integer result", name)
	}
	if _, isSlice := sig.Results().At(res).Type().Underlying().(*types.Slice); !isSlice && pattern != 0 {
		return refusedSummary("helper %s's result %d is not a slice", name, res+1)
	}

	d := l.declOf(fn)
	if d == nil || d.fd.Body == nil {
		return refusedSummary("helper %s's declaration was not found in the module", name)
	}
	tp, fd := d.tp, d.fd

	sp := newProver(l.a, tp, d.f, fd, l)
	if pattern == 0 {
		return &fnSummary{ok: sp.returnsNonNeg()}
	}

	// Exactly one return statement, in straight-line context, with the
	// full result list spelled out.
	var ret *ast.ReturnStmt
	returns := 0
	ast.Inspect(fd, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns++
			ret = r
		}
		return true
	})
	if returns != 1 {
		return refusedSummary("helper %s has %d return statements; the summary needs exactly one", name, returns)
	}
	retCtx := sp.ctxOf(sp.ff.pathTo(ret))
	if !retCtx.straightLine() {
		return refusedSummary("helper %s returns from inside a loop, conditional, or closure", name)
	}
	if len(ret.Results) != sig.Results().Len() {
		return refusedSummary("helper %s's return does not name its results individually", name)
	}
	retID, isID := unparen(ret.Results[res]).(*ast.Ident)
	if !isID {
		return refusedSummary("helper %s returns an expression, not a named local, at position %d", name, res+1)
	}

	cap := &captureSink{}
	pt := &provePoint{pos: ret.Pos(), ctx: retCtx, pattern: pattern, sink: cap}
	proof := sp.proveVar(pt, retID)
	if !proof.ok {
		return refusedSummary("inside %s, %s", name, proof.reason)
	}

	// Express the captured bound against the helper's signature: its
	// parameters, or a result returned alongside (a scan's total).
	if !cap.hasBound {
		return refusedSummary("helper %s's proof produced no domain bound", name)
	}
	bound, ok := sp.boundToRef(cap.bound, tp.paramPositions(nil, fd.Type.Params))
	for j, r := range ret.Results {
		if !ok && j != res && cap.bound.expr != nil && sp.cmp.eq(r, cap.bound.expr) {
			bound, ok = boundRef{kind: boundResult, k: j}, true
		}
	}
	if !ok {
		return refusedSummary("helper %s's domain bound is not expressible in its parameters or results", name)
	}

	return &fnSummary{ok: true, source: proof.source, chain: proof.chain, bound: bound,
		declLine: l.a.fset.Position(fd.Name.Pos()).Line}
}

// boundToRef rewrites a captured bound denotation against the helper's
// parameter list: a constant, a parameter identifier, len(parameter),
// or — through makeLen — the allocation length of the returned local.
func (p *prover) boundToRef(bound lenDenot, paramIdx map[types.Object]int) (boundRef, bool) {
	if c, ok := p.denotConst(bound); ok {
		return boundRef{kind: boundConst, c: c}, true
	}
	if bound.lenOf != nil {
		if k, isParam := paramIdx[bound.lenOf]; isParam {
			return boundRef{kind: boundLenParam, k: k}, true
		}
		// A local's symbolic length: resolve through its allocation.
		if M := p.makeLen(bound.lenOf); M != nil {
			return p.boundToRef(lenDenot{expr: M}, paramIdx)
		}
		return boundRef{}, false
	}
	if bound.expr == nil {
		return boundRef{}, false
	}
	e, kind := p.cmp.norm(bound.expr), boundParam
	if call, isCall := e.(*ast.CallExpr); isCall && builtinOf(p.tp, call) == "len" && len(call.Args) == 1 {
		e, kind = unparen(call.Args[0]), boundLenParam
	}
	if id, isID := e.(*ast.Ident); isID && p.stableObj(p.tp.objOf(id)) {
		if k, isParam := paramIdx[p.tp.objOf(id)]; isParam {
			return boundRef{kind: kind, k: k}, true
		}
	}
	return boundRef{}, false
}

// returnsNonNeg reports whether every return of the function itself,
// not of a literal inside it, proves non-negative under its fixpoint.
func (p *prover) returnsNonNeg() bool {
	p.ensureNN()
	returns, allNN := 0, true
	ast.Inspect(p.fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if r, isRet := n.(*ast.ReturnStmt); isRet {
			returns++
			allNN = allNN && len(r.Results) == 1 && p.nnExpr(r.Results[0])
		}
		return true
	})
	return returns > 0 && allNN
}
