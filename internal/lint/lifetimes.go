package lint

// The arena lifetime certification pass (rpblint -lifetimes): the
// missing borrow-checker leg. The races pass proves that parallel
// writes are exclusive; this pass proves that the memory being written
// *lives long enough* — that no slice checked out of an arena outlives
// the Mark/Release scope, region, or worker that owns it.
//
// Every value originating from arena.Alloc / AllocUninit / AcquireBox
// (and every slice re-derived from one by slicing, aliasing, RowInto-
// style out-params, or struct field stores) is tracked through an
// intraprocedural dataflow (regionflow.go), a sink of the shared write
// decisions (writes.go): the call dispatcher, which asks the memoized
// callee summary the races pass also reads (raceeffect.go) whether a
// helper keeps what it is handed, and the one store rule the summary
// keeps by as well. Each checkout's fate is classified:
//
//	released-in-scope  a covering Mark is Released (LIFO, on all
//	                   paths — a deferred Release covers panic edges)
//	                   or the box goes back through ReleaseBox, before
//	                   the checkout can be observed again
//	region-confined    the checkout never escapes the For/Join/
//	                   RunRange region that owns the worker; the
//	                   arena owner's Reset reclaims it
//	worker-confined    the checkout escapes its region but only into
//	                   per-worker state that is cleared before reuse
//	                   (a box field nil'ed before ReleaseBox)
//	refused            the analysis cannot prove confinement: the
//	                   checkout is returned, sent on a channel, stored
//	                   into a captured/global location, crosses a
//	                   goroutine or region boundary, or is used after
//	                   a dominating Release/Reset — each with a
//	                   proof-chain reason. //lint:scared audits one.
//
// A subrule covers AllocUninit's extra obligation: the returned memory
// holds garbage from earlier generations, so a read not dominated by a
// fill (an element write, or handing the slice/its holder to a callee)
// is refused as a read of uninitialized memory.
//
// Like -certify and -races, the result is lint-lifetimes.json,
// staleness-gated in CI; an unexplained refusal anywhere in the module
// fails the gate. The pass is lexical and refusal-biased: statement order
// approximates dominance, calls into the substrate packages are
// non-retaining by documented contract, in-module helpers get real
// retention summaries, and dynamic callees refuse unless an out-param
// contract (lifeMethodContracts) covers them or they are closures local
// to the function.

import (
	"fmt"
	"go/ast"
)

// Checkout fate classes.
const (
	LifeReleased       = "released-in-scope"
	LifeRegionConfined = "region-confined"
	LifeWorkerConfined = "worker-confined"
	LifeRefused        = "refused"
)

// LifeSite is one classified arena checkout (or a Release-site
// violation, Origin "Release").
type LifeSite struct {
	sitePos        // File, Line, Col: the leading "file", "line", "col" JSON fields
	Func    string `json:"func"`   // enclosing function
	Origin  string `json:"origin"` // Alloc | AllocUninit | AcquireBox | Release
	Expr    string `json:"expr"`   // the bound carrier ("_" when unbound)
	Class   string `json:"class"`
	Detail  string `json:"detail,omitempty"` // proof evidence
	Reason  string `json:"reason,omitempty"` // refusal proof chain
	Marker  bool   `json:"marker,omitempty"` // refusal audited by //lint:scared
}

func (s LifeSite) String() string {
	head := fmt.Sprintf("%s:%d:%d: %s %s in %s: %s",
		s.File, s.Line, s.Col, s.Origin, s.Expr, s.Func, s.Class)
	if s.Detail != "" {
		head += " (" + s.Detail + ")"
	}
	if s.Class == LifeRefused {
		head += ": " + s.Reason
		if s.Marker {
			head += " (audited: //lint:scared)"
		}
	}
	return head
}

// LifeReport is the machine-readable census (lint-lifetimes.json).
type LifeReport struct {
	Version        int        `json:"version"`
	Module         string     `json:"module"`
	Regions        int        `json:"regions"`
	Marks          int        `json:"marks"`
	Checkouts      int        `json:"checkouts"`
	Released       int        `json:"released"`
	RegionConfined int        `json:"regionConfined"`
	WorkerConfined int        `json:"workerConfined"`
	Refused        int        `json:"refused"`
	Unexplained    int        `json:"unexplained"`
	Sites          []LifeSite `json:"sites"`
}

// Lifetimes runs the arena lifetime certification pass over the module
// under cfg.Root.
func Lifetimes(cfg Config) (*LifeReport, error) {
	_, _, rep, err := RunPasses(cfg, false, false, true)
	return rep, err
}

// lifetimes runs the pass over an already-built analysis.
func (a *analysis) lifetimes() *LifeReport {
	l := a.typed()
	l.prescanBoxes()
	rep := &LifeReport{Version: 1, Module: a.mod}

	l.eachFunc(func(tp *typedPkg, f *fileInfo, fd *ast.FuncDecl) {
		if tp == nil || isPath(tp.pkg.path, arenaPath) {
			return // unloadable, or the substrate implementing the checkouts
		}
		ff := l.factsOf(tp, fd)
		regions := collectRegions(ff, f)
		rep.Regions += len(regions)
		lw := newLifeWalk(l, ff, f, regions)
		lw.run()
		rep.Marks += lw.markCount
		rep.Sites = append(rep.Sites, lw.sites...)
	})

	sortSites(rep.Sites)
	for i := range rep.Sites {
		s := &rep.Sites[i]
		if s.Origin != "Release" {
			rep.Checkouts++
		}
		switch s.Class {
		case LifeReleased:
			rep.Released++
		case LifeRegionConfined:
			rep.RegionConfined++
		case LifeWorkerConfined:
			rep.WorkerConfined++
		default:
			rep.Refused++
			if !s.Marker {
				rep.Unexplained++
			}
		}
	}
	return rep
}

// Marshal renders the report as the canonical lint-lifetimes.json bytes.
func (r *LifeReport) Marshal() []byte { return marshalArtifact(r) }

// String renders the per-site table and summary rpblint -lifetimes
// prints.
func (r *LifeReport) String() string {
	return renderSites(r.Sites, fmt.Sprintf("lifetimes: %d regions, %d marks; %d checkouts: %d released-in-scope, %d region-confined, %d worker-confined, %d refused (%d unexplained)\n",
		r.Regions, r.Marks, r.Checkouts, r.Released, r.RegionConfined, r.WorkerConfined, r.Refused, r.Unexplained))
}

// prescanBoxes walks the whole module once, collecting the AcquireBox
// instantiation types (boxTypes) and every "x.field = nil" clear whose
// base is a named type (boxCleared). Retention needs both globally: a
// helper may store into a box field its caller clears (core.packCount
// fills packBody.counts; packWrite clears it). Whichever pass asks
// first scans; later calls return at once, so every callee summary,
// memoized across passes, sees the same boxes.
func (l *typeLoader) prescanBoxes() {
	if l.boxTypes != nil {
		return
	}
	l.boxTypes = map[string]bool{}
	l.boxCleared = map[string]bool{}
	for _, pkg := range l.a.sortedPkgs() {
		tp := l.check(pkg.path)
		if tp == nil {
			continue
		}
		for _, f := range pkg.files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name, _ := arenaCheckout(f, call); name == "AcquireBox" {
						if tn := boxTypeName(tp.typeOf(call)); tn != "" {
							l.boxTypes[tn] = true
						}
					}
				}
				return true
			})
			nilClears(tp, f.ast, func(key string) { l.boxCleared[key] = true })
		}
	}
}

// nilClears calls visit with "Type.field" for every "x.field = nil"
// under n whose base x has a named type.
func nilClears(tp *typedPkg, n ast.Node, visit func(key string)) {
	ast.Inspect(n, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok && isNilExpr(tp, as.Rhs[i]) {
				if tn := boxTypeName(tp.typeOf(sel.X)); tn != "" {
					visit(tn + "." + sel.Sel.Name)
				}
			}
		}
		return true
	})
}
