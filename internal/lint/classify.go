package lint

import (
	"go/ast"

	"repro/internal/core"
)

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
	cUncheckedSng // IndForEachUnchecked, ScatterUnchecked, ScatterAtomic32
	cUncheckedRng // IndChunksUnchecked
	cAWHelper     // WriteMin*/WriteMax*/CASLoop*
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

// coreCall describes one classified call of a core primitive.
type coreCall struct {
	name    string
	pattern core.Pattern
	fear    core.Fear
	mask    construct
	// worker reports whether the primitive's first argument is the
	// worker; such calls are skipped when that argument is a literal
	// nil (sequential use — not a parallel access site).
	worker bool
}

// coreCalls classifies every exported core primitive into the paper's
// taxonomy (the "Parallel expression" column of Table 3, extended to
// the whole library surface).
var coreCalls = map[string]coreCall{
	// RO — read-only operators: reductions never share an accumulator.
	"Reduce":    {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"MapReduce": {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"Sum":       {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"Max":       {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"Min":       {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"MaxIndex":  {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"Count":     {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"All":       {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"SegReduce": {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},
	"IsSorted":  {pattern: core.RO, fear: core.Fearless, mask: cRO, worker: true},

	// Stride — array[i] = f(): each task owns index i. ForBlocks is the
	// range-bodied engine; the others are its per-element wrappers.
	"ForBlocks":  {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},
	"ForRange":   {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},
	"ForEachIdx": {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},
	"Fill":       {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},
	"Tabulate":   {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},
	"CopyInto":   {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},
	"Stencil2D":  {pattern: core.Stride, fear: core.Fearless, mask: cStride, worker: true},

	// Block — array[i*s..(i+1)*s] = f(): disjoint chunks, scans, packs.
	// The *Into forms are the destination-passing variants
	// (docs/MEMORY.md): same access pattern, caller-owned output.
	"Chunks":            {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"ScanExclusive":     {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"ScanInclusive":     {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"ScanExclusiveOp":   {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"ScanExclusiveInto": {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"ScanInclusiveInto": {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"PackIndex":         {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"PackIndexInto":     {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"PackMaskInto":      {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"PackInto":          {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"Filter":            {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"FilterInto":        {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"Flatten":           {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},
	"FlattenInto":       {pattern: core.Block, fear: core.Fearless, mask: cBlock, worker: true},

	// D&C — divide and conquer: fork/join recursion.
	"Sort":     {pattern: core.DC, fear: core.Fearless, mask: cDC, worker: true},
	"SortBy":   {pattern: core.DC, fear: core.Fearless, mask: cDC, worker: true},
	"Async":    {pattern: core.DC, fear: core.Fearless, mask: cDC, worker: true},
	"Pipeline": {pattern: core.DC, fear: core.Fearless, mask: cDC, worker: true},

	// SngInd — array[B[i]] = f(): comfortable via the run-time
	// uniqueness check, scared unchecked.
	"IndForEach":          {pattern: core.SngInd, fear: core.Comfortable, mask: cSngInd, worker: true},
	"Scatter":             {pattern: core.SngInd, fear: core.Comfortable, mask: cSngInd, worker: true},
	"ScatterChecked":      {pattern: core.SngInd, fear: core.Comfortable, mask: cSngInd, worker: true},
	"IndForEachUnchecked": {pattern: core.SngInd, fear: core.Scared, mask: cUncheckedSng, worker: true},
	"ScatterUnchecked":    {pattern: core.SngInd, fear: core.Scared, mask: cUncheckedSng, worker: true},
	"ScatterAtomic32":     {pattern: core.SngInd, fear: core.Scared, mask: cUncheckedSng, worker: true},

	// RngInd — array[B[i]..B[i+1]] = f(): comfortable via the run-time
	// monotonicity check, scared unchecked.
	"IndChunks":          {pattern: core.RngInd, fear: core.Comfortable, mask: cRngInd, worker: true},
	"IndChunksUnchecked": {pattern: core.RngInd, fear: core.Scared, mask: cUncheckedRng, worker: true},

	// AW — arbitrary reads and writes: the library's synchronization
	// helpers; always scared, declaration-only in the census.
	"WriteMin32":      {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"WriteMin64":      {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"WriteMax32":      {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"WriteMinU32":     {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"WriteMinU64":     {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"CASLoop32":       {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"SetBit":          {pattern: core.AW, fear: core.Scared, mask: cAWHelper},
	"NewShardedLocks": {pattern: core.AW, fear: core.Scared, mask: cLocks},
}

// parallelBodyArg gives, for primitives that take a per-task closure,
// the argument index of that closure. These are the "Fearless
// primitive body" positions the race heuristics inspect.
var parallelBodyArg = map[string][]int{
	"ForBlocks":           {4},
	"ForRange":            {4},
	"ForEachIdx":          {3},
	"Chunks":              {3},
	"Tabulate":            {2},
	"Fill":                nil,
	"Stencil2D":           {4},
	"Reduce":              {3, 4},
	"MapReduce":           {3, 4},
	"Count":               {2},
	"All":                 {2},
	"SegReduce":           {4, 5},
	"PackIndex":           {2},
	"PackIndexInto":       {2},
	"PackMaskInto":        {2},
	"PackInto":            {2},
	"Filter":              {2},
	"FilterInto":          {2},
	"SortBy":              {2},
	"IsSorted":            {2},
	"ScanExclusiveOp":     {3},
	"IndForEach":          {3},
	"IndForEachUnchecked": {3},
	"IndChunks":           {3},
	"IndChunksUnchecked":  {3},
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

// classifyCall classifies one call expression. It returns the matched
// coreCall (for core primitives) and/or a construct mask for the other
// scared building blocks. ok is false for unclassified calls.
func classifyCall(f *fileInfo, call *ast.CallExpr) (cc coreCall, mask construct, ok bool) {
	path, name, isPkgCall := callTarget(f, call)
	if !isPkgCall {
		return coreCall{}, 0, false
	}
	switch {
	case isPath(path, corePath):
		cc, found := coreCalls[name]
		if !found {
			return coreCall{}, 0, false
		}
		cc.name = name
		if cc.worker && len(call.Args) > 0 && isNilIdent(call.Args[0]) {
			// Sequential use (nil worker): not a parallel access site.
			return coreCall{}, 0, false
		}
		return cc, cc.mask, true
	case path == atomicPath:
		return coreCall{}, cAtomic, true
	case isPath(path, mqPath) && mqRegionFuncs[name],
		isPath(path, specforPath) && name == "Run":
		return coreCall{}, cTaskEngine, true
	}
	return coreCall{}, 0, false
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
