package lint

import "go/ast"

// construct is a bitmask of the pattern-relevant constructs a piece of
// code uses. The low bits mirror the Table 3 taxonomy for recommended
// (Fearless/Comfortable) expressions; the high bits track the scared
// building blocks.
type construct uint32

const (
	cRO construct = 1 << iota
	cStride
	cBlock
	cDC
	cSngInd       // checked: IndForEach, Scatter, ScatterChecked
	cRngInd       // checked: IndChunks
	cUncheckedSng // IndForEachUnchecked, ScatterUnchecked
	cUncheckedRng // IndChunksUnchecked
	cAWHelper     // WriteMin*/WriteMax32/SetBit
	cLocks        // NewShardedLocks
	cAtomic       // sync/atomic call or declaration
	cSyncDecl     // sync.Mutex / RWMutex / WaitGroup / Cond declaration
	cGoStmt       // raw go statement
	cTaskEngine   // mq.Process / specfor.Run dynamic-task engines
)

// cAnySync marks the synchronized expression family: any of these can
// legitimately express an irregular (SngInd/RngInd/AW) access, the
// paper's "placate the type system" option.
const cAnySync = cAWHelper | cLocks | cAtomic | cSyncDecl | cGoStmt | cTaskEngine

// cScared are the constructs the containment rule audits — the Go
// analogs of unsafe blocks.
const cScared = cUncheckedSng | cUncheckedRng | cAnySync

// corePath and friends are the import paths resolution keys on. The
// classifier matches by path suffix so it works from any module name.
const (
	corePath    = "internal/core"
	schedPath   = "internal/sched"
	mqPath      = "internal/mq"
	specforPath = "internal/specfor"
	atomicPath  = "sync/atomic"
	syncPath    = "sync"
)

func isPath(imported, want string) bool {
	return imported == want ||
		(len(imported) > len(want) && imported[len(imported)-len(want)-1] == '/' &&
			imported[len(imported)-len(want):] == want)
}

// syncDeclTypes are the raw-synchronization types whose declaration
// counts as a scared construct.
var syncDeclTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Cond": true, "Locker": true,
}

// isNilIdent reports whether e is the literal nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// callTarget resolves a call's package-qualified target: it returns the
// import path and selector name for pkg.Fn(...) calls — including
// explicitly instantiated generics like arena.Alloc[int32](a, n) — or
// ok=false for anything else (method values, locals, conversions).
func callTarget(f *fileInfo, call *ast.CallExpr) (path, name string, ok bool) {
	fun := call.Fun
	switch v := fun.(type) {
	case *ast.IndexExpr:
		fun = v.X
	case *ast.IndexListExpr:
		fun = v.X
	}
	sel, isSel := fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path, imported := f.imports[id.Name]
	if !imported {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// classifyCall classifies one call expression: a core primitive yields
// its name, table row and class; the other scared building blocks only
// a construct mask. mask is 0 for unclassified calls.
func classifyCall(f *fileInfo, call *ast.CallExpr) (string, *primitive, construct) {
	path, name, ok := callTarget(f, call)
	switch {
	case !ok:
	case isPath(path, corePath):
		p := primitives[name]
		if p == nil || p.class == 0 || p.worker() && len(call.Args) > 0 && isNilIdent(call.Args[0]) {
			break // not censused, or sequential use (nil worker): not a parallel access site
		}
		return name, p, p.class
	case path == atomicPath:
		return "", nil, cAtomic
	case isTaskEngine(path, name):
		return "", nil, cTaskEngine
	}
	return "", nil, 0
}

// declConstruct classifies a variable/field declaration type as a
// scared construct (sync.Mutex, atomic.Int64, ...).
func declConstruct(f *fileInfo, typ ast.Expr) construct {
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok {
		if star, isStar := typ.(*ast.StarExpr); isStar {
			return declConstruct(f, star.X)
		}
		return 0
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return 0
	}
	path, imported := f.imports[id.Name]
	if !imported {
		return 0
	}
	if path == syncPath && syncDeclTypes[sel.Sel.Name] {
		return cSyncDecl
	}
	if path == atomicPath {
		return cAtomic
	}
	return 0
}
