package lint

// What rpblint knows about internal/core's entry points, in one table:
// a new primitive is one new row here. Positions count the call's
// arguments from 0, and 0 — the worker, wherever a position is
// meaningful — doubles as "none". TestPrimitiveTableMatchesCore checks
// the rows against the real signatures.

import (
	"go/ast"

	"repro/internal/core"
)

// primitive describes one core entry point to every pass.
type primitive struct {
	// class is the census class (classes): it fixes the Table 3
	// pattern, the fear rung, and whether argument 0 is the worker.
	class construct

	// Closure arguments, each a parallel region. bodies[0] is the
	// per-task body that task, handed, ranged, lo and hi describe; a
	// later one (a reduction's comb) runs concurrently with no per-task
	// parameters.
	bodies []int
	task   []int // body params holding a value unique to the invocation
	handed []int // body params handing the invocation elements of argument out that it alone owns
	ranged bool  // body params (0, 1) are a handed disjoint subrange
	lo, hi int   // arguments bounding the task-index space; lo 0 means it starts at zero
	once   bool  // argument 0 is a body run exactly once, in place: no region, transparent to the prover
	// halves maps each method of the body argument's type that the
	// primitive runs concurrently over disjoint [lo, hi) blocks to the
	// core type of its parameter 0, a handout the invocation alone owns.
	// Each such method declaration is a region (races.go methodRegion).
	halves map[string]string
	// unmodeled says why a func-typed parameter is in no body position;
	// docs/LINT.md's soundness caveats repeat it.
	unmodeled string

	// out is the argument written on the caller's behalf: what handed
	// params alias, a scatter's target, an atomic helper's cell.
	out int
	// offsets is the argument whose uniqueness (SngInd) or monotonicity
	// (RngInd) -certify proves; set, the call is a certification site.
	offsets int
	twin    string // the checked primitive an example calls instead
	atomic  bool   // every write to out goes through sync/atomic

	// The prover's vocabulary (provenance.go).
	scans    int  // slice argument prefix-summed in place, total returned
	total    int  // argument the scan's total equals, where none is returned
	permutes int  // slice argument reordered in place
	reads    int  // slice argument only read, by contract
	packs    bool // the result is strictly increasing and unique in [0, n)
}

// classes gives each primitive class its pattern and fear rung (the
// "Parallel expression" column of Table 3, extended to the library).
var classes = map[construct]struct {
	pattern core.Pattern
	fear    core.Fear
}{
	cRO:           {core.RO, core.Fearless},
	cStride:       {core.Stride, core.Fearless},
	cBlock:        {core.Block, core.Fearless},
	cDC:           {core.DC, core.Fearless},
	cSngInd:       {core.SngInd, core.Comfortable}, // the run-time uniqueness check
	cRngInd:       {core.RngInd, core.Comfortable}, // the run-time monotonicity check
	cUncheckedSng: {core.SngInd, core.Scared},
	cUncheckedRng: {core.RngInd, core.Scared},
	cAWHelper:     {core.AW, core.Scared}, // declaration-only in the census
	cLocks:        {core.AW, core.Scared},
}

func (p *primitive) pattern() core.Pattern { return classes[p.class].pattern }
func (p *primitive) fear() core.Fear       { return classes[p.class].fear }

// worker reports whether argument 0 is the worker. A literal nil there
// is sequential use, not a parallel access site.
func (p *primitive) worker() bool { return p.class&^(cAWHelper|cLocks) != 0 }

// checked reports whether the call pays the run-time check a
// certificate would make redundant.
func (p *primitive) checked() bool { return p.fear() == core.Comfortable }

// property names what -certify must prove about the offsets argument.
func (p *primitive) property() string {
	if p.pattern() == core.RngInd {
		return "monotone+bounds"
	}
	return "unique+bounds"
}

var primitives = map[string]*primitive{
	// RO — reductions never share an accumulator. ReduceBlocks is the
	// range-bodied engine; the others are wrappers over it.
	"ReduceBlocks": {class: cRO, bodies: []int{3, 4}, ranged: true, hi: 1},
	"Reduce":       {class: cRO, bodies: []int{3, 4}},
	"MapReduce": {class: cRO, bodies: []int{3}, task: []int{0}, hi: 1,
		unmodeled: "comb (argument 4) is not walked as a region, unlike Reduce's: its writes to captured state are not classified"},
	"Sum":      {class: cRO},
	"Max":      {class: cRO},
	"MaxIndex": {class: cRO},
	"IsSorted": {class: cRO, bodies: []int{2}},

	// Stride — array[i] = f(): each task owns index i. ForBlocks is the
	// range-bodied engine; the others are its per-element wrappers.
	"ForBlocks":  {class: cStride, bodies: []int{4}, ranged: true, lo: 1, hi: 2},
	"ForRange":   {class: cStride, bodies: []int{4}, task: []int{0}, lo: 1, hi: 2},
	"ForEachIdx": {class: cStride, bodies: []int{3}, task: []int{0}, handed: []int{1}, out: 1},
	"Fill":       {class: cStride},
	"Tabulate":   {class: cStride, bodies: []int{2}, task: []int{0}, hi: 1},
	"CopyInto":   {class: cStride, reads: 2},

	// Block — array[i*s..(i+1)*s] = f(): disjoint chunks, scans, packs.
	// The *Into forms are the destination-passing variants
	// (docs/MEMORY.md): same access pattern, caller-owned output.
	"Chunks":            {class: cBlock, bodies: []int{3}, task: []int{0}, handed: []int{1}, out: 1},
	"ScanExclusive":     {class: cBlock, scans: 1},
	"ScanInclusive":     {class: cBlock, scans: 1},
	"ScanExclusiveOp":   {class: cBlock, bodies: []int{3}},
	"ScanExclusiveInto": {class: cBlock},
	"PackIndex":         {class: cBlock, bodies: []int{2}, task: []int{0}, hi: 1, packs: true},
	"PackIndexInto":     {class: cBlock, bodies: []int{2}, task: []int{0}, hi: 1},
	"PackMaskInto":      {class: cBlock, bodies: []int{2}, ranged: true, hi: 1},
	"PackInto":          {class: cBlock, bodies: []int{2}, ranged: true},

	// D&C — fork/join recursion.
	"Sort":   {class: cDC, permutes: 1},
	"SortBy": {class: cDC, bodies: []int{2}, permutes: 1},

	// SngInd — array[B[i]] = f(): comfortable checked, scared unchecked.
	"IndForEach":          {class: cSngInd, bodies: []int{3}, task: []int{0}, handed: []int{1}, out: 1, offsets: 2},
	"Scatter":             {class: cSngInd, out: 1, offsets: 2},
	"ScatterChecked":      {class: cSngInd, out: 1, offsets: 2},
	"IndForEachUnchecked": {class: cUncheckedSng, bodies: []int{3}, task: []int{0}, handed: []int{1}, out: 1, offsets: 2, twin: "IndForEach"},
	"ScatterUnchecked":    {class: cUncheckedSng, out: 1, offsets: 2, twin: "ScatterChecked"},

	// RngInd — array[B[i]..B[i+1]] = f(): likewise.
	"IndChunks":          {class: cRngInd, bodies: []int{3}, task: []int{0}, handed: []int{1}, out: 1, offsets: 2},
	"IndChunksUnchecked": {class: cUncheckedRng, bodies: []int{3}, task: []int{0}, handed: []int{1}, out: 1, offsets: 2, twin: "IndChunks"},

	// The counting-sort engine: the body's halves are regions, each
	// block's Cursor hands out slots no other block's does (checked
	// under ModeChecked). Block, as the engine counts itself: the place
	// write's pattern is the caller's to declare. starts comes back as
	// the exclusive prefix sums of non-negative counts, starts[k] = n.
	"CountSort": {class: cBlock, halves: map[string]string{"CountRange": "Counter", "PlaceRange": "Cursor"}, scans: 3, total: 1},

	// AW — the library's synchronization helpers; no worker argument.
	"WriteMin32":      {class: cAWHelper, atomic: true},
	"WriteMax32":      {class: cAWHelper, atomic: true},
	"WriteMinU32":     {class: cAWHelper, atomic: true},
	"WriteMinU64":     {class: cAWHelper, atomic: true},
	"SetBit":          {class: cAWHelper, atomic: true},
	"NewShardedLocks": {class: cLocks},

	// Not censused: the pool entry point.
	"Run": {once: true},
}

// primitiveOf resolves a package-qualified call into core to its row.
func primitiveOf(f *fileInfo, call *ast.CallExpr) (string, *primitive) {
	if path, name, ok := callTarget(f, call); ok && isPath(path, corePath) {
		return name, primitives[name]
	}
	return "", nil
}

// regionPrimitiveOf is primitiveOf for region enumeration, which also
// runs inside core: there the per-element wrappers reach ForBlocks
// through its uncounted form, unqualified.
func regionPrimitiveOf(f *fileInfo, call *ast.CallExpr) (string, *primitive) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "forBlocks" && isPath(f.pkg.path, corePath) {
		return "ForBlocks", primitives["ForBlocks"]
	}
	return primitiveOf(f, call)
}

// mqDrivers are the mq entry points whose last argument is a task
// closure run by a drive's slot loops; the closure's first parameter is
// the slot id, which one slot loop at a time owns.
var mqDrivers = map[string]bool{"Process": true, "ProcessBatch": true, "ProcessBatchOn": true}

func isMQDriver(path, name string) bool { return isPath(path, mqPath) && mqDrivers[name] }

// isTaskEngine reports the dynamic-task engines outside core.
func isTaskEngine(path, name string) bool {
	return isMQDriver(path, name) || isPath(path, specforPath) && name == "Run"
}
