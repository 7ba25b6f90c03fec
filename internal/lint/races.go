package lint

// The parallel-write certification pass (rpblint -races): enumerate
// every lexical parallel region — core primitive bodies, sched.Worker
// fork points, RangeBody.RunRange methods, mq worker loops, and go
// statements — and classify every write those regions make to captured
// or escaping state:
//
//	worker-local    the memory belongs to this task alone (a handed
//	                slot or chunk, an arena checkout, or state only
//	                one Join branch touches)
//	atomic          the write goes through sync/atomic or one of the
//	                core atomic helpers
//	lock-guarded    the write happens while a mutex is held
//	index-disjoint  distinct concurrent invocations provably write
//	                distinct elements (the Detail field names the
//	                subrule: task-affine, range-owner, block-owner,
//	                residue-class, unique-handout, worker-owned)
//	refused         the analysis cannot prove safety; a //lint:scared
//	                marker turns the refusal into an audited one
//
// Disjointness alone is enough for race freedom: Go bounds-checks every
// slice access, so an out-of-range index panics instead of racing.
//
// The pass is lexical and refusal-biased, like the offset-provenance
// certifier it delegates to: a call through a func-typed value or an
// interface inside a region is delegated (the callee owns its writes
// and is certified where its own regions appear); an in-module call is
// classified through a memoized write-effect summary (raceeffect.go);
// anything unproven is refused with a reason.
//
// The result is lint-races.json, staleness-gated in CI the same way
// lint-certs.json is. A refusal without a marker, anywhere in the
// module, fails the gate.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Write classes.
const (
	RaceWorkerLocal   = "worker-local"
	RaceAtomic        = "atomic"
	RaceLockGuarded   = "lock-guarded"
	RaceIndexDisjoint = "index-disjoint"
	RaceRefused       = "refused"
)

// RaceSite is one classified shared write inside a parallel region.
type RaceSite struct {
	sitePos        // File, Line, Col: the leading "file", "line", "col" JSON fields
	Func    string `json:"func"`   // enclosing function
	Region  string `json:"region"` // region-creating construct
	Target  string `json:"target"` // written expression
	Class   string `json:"class"`
	Detail  string `json:"detail,omitempty"` // subrule / evidence
	Reason  string `json:"reason,omitempty"` // refusal explanation
	Marker  bool   `json:"marker,omitempty"` // refusal audited by //lint:scared
}

func (s RaceSite) String() string {
	head := fmt.Sprintf("%s:%d:%d: %s in %s: %s %s",
		s.File, s.Line, s.Col, s.Target, s.Region, s.Class, s.Detail)
	head = strings.TrimRight(head, " ")
	if s.Class == RaceRefused {
		head += ": " + s.Reason
		if s.Marker {
			head += " (audited: //lint:scared)"
		}
	}
	return head
}

// RaceReport is the machine-readable census (lint-races.json).
type RaceReport struct {
	Version       int        `json:"version"`
	Module        string     `json:"module"`
	Regions       int        `json:"regions"`
	WorkerLocal   int        `json:"workerLocal"`
	Atomic        int        `json:"atomic"`
	LockGuarded   int        `json:"lockGuarded"`
	IndexDisjoint int        `json:"indexDisjoint"`
	Refused       int        `json:"refused"`
	Unexplained   int        `json:"unexplained"`
	Sites         []RaceSite `json:"sites"`
}

// Races runs the parallel-write certification pass over the module
// under cfg.Root.
func Races(cfg Config) (*RaceReport, error) {
	_, rep, _, err := RunPasses(cfg, false, true, false)
	return rep, err
}

// races runs the pass over an already-built analysis.
func (a *analysis) races() *RaceReport {
	l := a.typed()
	rep := &RaceReport{Version: 1, Module: a.mod}

	l.eachFunc(func(tp *typedPkg, f *fileInfo, fd *ast.FuncDecl) {
		if tp == nil {
			return
		}
		regions := collectRegions(l.factsOf(tp, fd), f)
		rep.Regions += len(regions)
		for _, r := range regions {
			rc := newRegionCheck(l, tp, f, fd, r)
			rc.run()
			rep.Sites = append(rep.Sites, rc.sites...)
		}
	})

	rep.Sites = dedupRaceSites(rep.Sites)
	for i := range rep.Sites {
		s := &rep.Sites[i]
		switch s.Class {
		case RaceWorkerLocal:
			rep.WorkerLocal++
		case RaceAtomic:
			rep.Atomic++
		case RaceLockGuarded:
			rep.LockGuarded++
		case RaceIndexDisjoint:
			rep.IndexDisjoint++
		default:
			rep.Refused++
			if !s.Marker {
				rep.Unexplained++
			}
		}
	}
	return rep
}

// dedupRaceSites keeps one site per source position. A write can be
// seen from two regions (a nested closure walked by its enclosing
// region and claimed by an inner one); the proved classification wins
// over a refusal.
func dedupRaceSites(sites []RaceSite) []RaceSite {
	sortSites(sites)
	out := sites[:0]
	for _, s := range sites {
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.sitePos == s.sitePos {
				if p.Class == RaceRefused && s.Class != RaceRefused {
					*p = s
				}
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// Marshal renders the report as the canonical lint-races.json bytes.
func (r *RaceReport) Marshal() []byte { return marshalArtifact(r) }

// String renders the per-site table and summary rpblint -races prints.
func (r *RaceReport) String() string {
	return renderSites(r.Sites, fmt.Sprintf("races: %d regions; %d worker-local, %d atomic, %d lock-guarded, %d index-disjoint, %d refused (%d unexplained)\n",
		r.Regions, r.WorkerLocal, r.Atomic, r.LockGuarded, r.IndexDisjoint, r.Refused, r.Unexplained))
}

// ---------------------------------------------------------------------
// Region enumeration
// ---------------------------------------------------------------------

// raceRegion is one lexical parallel region.
type raceRegion struct {
	kind    string                  // display: creating construct
	at      token.Pos               // position the region is created at
	body    *ast.BlockStmt          // region body
	task    map[types.Object]string // unique-per-task params -> subrule seed
	handed  map[types.Object]bool   // params handing exclusively owned memory
	rangeLo types.Object            // handed subrange bounds (Worker.For, RunRange)
	rangeHi types.Object
	lo, hi  ast.Expr       // a core primitive's bounds arguments, when it spells out both
	worker  types.Object   // the invocation's *Worker param
	extent  ast.Expr       // task-index space size when the range starts at 0
	sibling *ast.BlockStmt // Join: the other branch

	claimed map[*ast.FuncLit]bool // nested region bodies, skipped by this region's walk
}

// collectRegions finds the parallel regions created inside one
// function, and the closure literals they claim (so enclosing regions
// do not re-walk a nested region's body). It is shared by the races
// pass (every region's writes are classified) and the lifetimes pass
// (a checkout's fate is judged against the region that owns it); see
// regionflow.go for the latter's flow walk.
func collectRegions(ff *funcFacts, f *fileInfo) []*raceRegion {
	tp, fd := ff.tp, ff.fd
	var regions []*raceRegion
	claimed := map[*ast.FuncLit]bool{}

	// Local closures resolve by name: primitives are often handed
	// name := func(...) {...} (msf's clearBest/offer/commit).
	resolveLit := func(arg ast.Expr) *ast.FuncLit {
		switch v := unparen(arg).(type) {
		case *ast.FuncLit:
			return v
		case *ast.Ident:
			if obj := tp.info.Uses[v]; obj != nil {
				return ff.litOf(obj)
			}
		}
		return nil
	}
	litParam := func(lit *ast.FuncLit, i int) types.Object {
		return tp.paramAt(lit.Type.Params, i)
	}

	add := func(r *raceRegion, lit *ast.FuncLit) {
		if r.task == nil {
			r.task = map[types.Object]string{}
		}
		if r.handed == nil {
			r.handed = map[types.Object]bool{}
		}
		claimed[lit] = true
		r.body = lit.Body
		regions = append(regions, r)
	}

	visit := func(n ast.Node) {
		switch v := n.(type) {
		case *ast.GoStmt:
			lit, ok := unparen(v.Call.Fun).(*ast.FuncLit)
			if !ok {
				return // handled as a site by the region walk of the enclosing region, if any
			}
			r := &raceRegion{kind: "go", at: v.Pos(), task: map[types.Object]string{}}
			// Spawn-loop idiom: a parameter fed the enclosing loop's
			// variable is unique per goroutine.
			for i, arg := range v.Call.Args {
				id, ok := unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				obj := tp.info.Uses[id]
				if obj == nil || !ff.of(obj).loopVar {
					continue
				}
				if p := litParam(lit, i); p != nil {
					r.task[p] = "task-affine"
				}
			}
			add(r, lit)

		case *ast.CallExpr:
			if name, prim := regionPrimitiveOf(f, v); prim != nil {
				for _, ai := range prim.bodies {
					if ai >= len(v.Args) {
						continue
					}
					lit := resolveLit(v.Args[ai])
					if lit == nil {
						continue
					}
					r := &raceRegion{kind: "core." + name, at: v.Pos(),
						task: map[types.Object]string{}, handed: map[types.Object]bool{}}
					// Task/handed params only apply to the per-task
					// body, the first in bodies.
					if ai == prim.bodies[0] {
						for _, ti := range prim.task {
							if p := litParam(lit, ti); p != nil {
								r.task[p] = "task-affine"
							}
						}
						for _, hi := range prim.handed {
							if p := litParam(lit, hi); p != nil {
								r.handed[p] = true
							}
						}
						if prim.ranged {
							r.rangeLo, r.rangeHi = litParam(lit, 0), litParam(lit, 1)
						}
						if prim.hi > 0 && prim.hi < len(v.Args) &&
							(prim.lo == 0 || isZeroExpr(v.Args[prim.lo])) {
							r.extent = v.Args[prim.hi]
						}
						if prim.lo > 0 && prim.hi < len(v.Args) {
							r.lo, r.hi = v.Args[prim.lo], v.Args[prim.hi]
						}
					}
					add(r, lit)
				}
				return
			}
			if pathStr, name, isPkg := callTarget(f, v); isPkg {
				if isMQDriver(pathStr, name) && len(v.Args) > 0 {
					if lit := resolveLit(v.Args[len(v.Args)-1]); lit != nil {
						r := &raceRegion{kind: "mq." + name, at: v.Pos(), task: map[types.Object]string{}}
						if p := litParam(lit, 0); p != nil {
							r.task[p] = "task-affine"
						}
						add(r, lit)
					}
				}
				return
			}
			// Worker method fork points: every closure argument is a
			// region handed the invocation's own worker.
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || !isWorkerNamed(tp.typeOf(sel.X)) {
				return
			}
			fork := func(lit *ast.FuncLit) *raceRegion {
				r := &raceRegion{kind: "Worker." + sel.Sel.Name, at: v.Pos(), worker: litParam(lit, 0)}
				add(r, lit)
				return r
			}
			switch name := sel.Sel.Name; {
			case name == "For" && len(v.Args) == 4:
				if lit := resolveLit(v.Args[3]); lit != nil {
					r := fork(lit)
					r.rangeLo, r.rangeHi = litParam(lit, 1), litParam(lit, 2)
				}
			case name == "Join" && len(v.Args) == 2:
				la, lb := resolveLit(v.Args[0]), resolveLit(v.Args[1])
				for _, pair := range [][2]*ast.FuncLit{{la, lb}, {lb, la}} {
					if pair[0] == nil {
						continue
					}
					if r := fork(pair[0]); pair[1] != nil {
						r.sibling = pair[1].Body
					}
				}
			case name == "SpawnTask" && len(v.Args) == 1:
				if lit := resolveLit(v.Args[0]); lit != nil {
					fork(lit)
				}
			}
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		visit(n)
		return true
	})

	// A RangeBody's RunRange method is itself a region: sched.ForBody
	// invokes it concurrently over disjoint subranges; so is each half
	// of a core.CountSort body.
	if r := methodRegion(tp, fd); r != nil {
		regions = append(regions, r)
	}

	for _, r := range regions {
		r.claimed = claimed
	}
	return regions
}

// methodRegion recognizes a method declaration some scheduler or
// library engine invokes concurrently over disjoint subranges [lo, hi)
// of its last two parameters: RunRange(w *Worker, lo, hi int) (the
// sched.RangeBody contract), its parameter 0 the invocation's worker,
// and a half of a primitive's body (primitive.halves), its parameter 0
// the invocation's own handout.
func methodRegion(tp *typedPkg, fd *ast.FuncDecl) *raceRegion {
	if fd.Recv == nil || fd.Type.Params == nil {
		return nil
	}
	params := tp.paramObjs(fd.Type.Params)
	if len(params) != 3 {
		return nil
	}
	r := &raceRegion{
		kind: "RangeBody.RunRange", at: fd.Pos(), body: fd.Body,
		task:    map[types.Object]string{},
		handed:  map[types.Object]bool{},
		rangeLo: params[1], rangeHi: params[2],
		claimed: map[*ast.FuncLit]bool{},
	}
	if fd.Name.Name == "RunRange" {
		r.worker = params[0]
		return r
	}
	for name, prim := range primitives {
		if handout := prim.halves[fd.Name.Name]; handout != "" && isNamed(params[0].Type(), corePath, handout) {
			r.kind = name + "." + fd.Name.Name
			r.handed[params[0]] = true
			return r
		}
	}
	return nil
}
