// Package arena provides per-worker scratch memory for the benchmark
// suite's hot paths: generation-stamped bump arenas hung off each
// scheduler worker, with typed checkout, LIFO scoped release, and a
// whole-arena Reset between benchmark rounds. See docs/MEMORY.md for
// the lifecycle and the destination-passing conventions built on top.
//
// The design goal is steady-state zero allocation: an arena grows while
// a kernel warms up, then every later round checks the same memory out
// again. Checkout is restricted to pointer-free element types (the
// arena's backing is untyped []byte that the garbage collector does not
// scan), with a transparent make fallback for pointered types and for
// nil arenas/workers, so callers never branch.
//
// Fear-level tagging (paper Table 3): a checkout is owner-only — only
// the worker the arena belongs to may Alloc/Release/Reset — which makes
// the arena itself Block-disjoint state, Fearless. The slice checked
// out may then be shared across workers under whatever pattern the
// algorithm declares for it (Block-disjoint writes in the scan/pack
// primitives). Builds with -race additionally refuse concurrent
// metadata use: a cross-worker handoff of the *Arena trips a busy-flag
// panic instead of corrupting the bump offset, so the rpblint census
// stays truthful about who touches what.
package arena

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"repro/internal/sched"
)

// Integer covers the index types accepted as checkout lengths, so call
// sites can pass scan totals (int32) or lengths (int) without
// conversion — and, just as important, without wrapping the length in
// an expression the offset-provenance certifier cannot see through.
type Integer interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// minSlab is the smallest slab the arena allocates. 256 KiB amortizes
// growth without bloating idle workers.
const minSlab = 256 << 10

// Arena is a generation-stamped bump allocator over garbage-collector-
// opaque byte slabs. It is owner-only: exactly one worker may call its
// methods. Zero value is ready to use.
type Arena struct {
	cur   []byte   // current slab; bump allocations come from here
	off   int      // bump offset into cur
	full  [][]byte // retired slabs, kept alive until Reset consolidates
	gen   uint32   // generation stamp; Reset increments it
	grown int      // bytes requested past cur across this generation

	busy  guard    // -race builds: refuse concurrent metadata use
	notes siteNote // -race builds: first checkout site per generation
}

// Mark is a point-in-time position in an arena, used for LIFO scoped
// release: Release(m) returns everything checked out since Mark to the
// arena. A mark is stamped with the arena's generation; releasing a
// mark taken before a Reset panics instead of silently rewinding into
// memory that later checkouts now own.
type Mark struct {
	gen  uint32
	full int // len(a.full) at mark time
	off  int
}

// Of returns the per-worker arena for w, creating it on first use. A
// nil worker yields a nil arena, for which every checkout transparently
// falls back to make — sequential code paths need no special casing.
func Of(w *sched.Worker) *Arena {
	if w == nil {
		return nil
	}
	if s, ok := w.Scratch().(*wscratch); ok {
		return &s.arena
	}
	s := newWscratch()
	w.SetScratch(s)
	return &s.arena
}

// Mark records the current checkout position.
func (a *Arena) Mark() Mark {
	if a == nil {
		return Mark{}
	}
	return Mark{gen: a.gen, full: len(a.full), off: a.off}
}

// Release rewinds the arena to m, returning everything checked out
// since the matching Mark. Marks must be released in LIFO order.
// Releasing a mark from a previous generation (the arena was Reset in
// between) panics: the memory it denotes has been handed to new owners.
//
// If the arena grew new slabs since the mark, a plain rewind would
// leave the bump offset stranded in the newest slab. Two cases:
//   - the mark covers the whole arena (nothing was checked out before
//     it): the grown slabs are consolidated into one slab of the
//     combined size on the spot, so the very next round runs without
//     growing — warm-up converges after a single release;
//   - something before the mark is still live: the rewind is deferred
//     and the retired slabs stay checked out until the enclosing
//     Release or the next Reset consolidates them. The leak is bounded
//     by one round's growth and exists only while the arena warms up.
func (a *Arena) Release(m Mark) {
	if a == nil {
		return
	}
	a.busy.enter()
	defer a.busy.exit()
	if m.gen != a.gen {
		msg := fmt.Sprintf("arena: Release of stale mark (mark gen %d, arena gen %d): arena was Reset while the checkout was live", m.gen, a.gen)
		if site := a.notes.lookup(m.gen); site != "" {
			msg += "; the mark generation's first checkout was allocated at " + site
		}
		panic(msg)
	}
	switch {
	case m.full == len(a.full):
		a.off = m.off
	case m.full == 0 && m.off == 0:
		a.consolidate()
	}
}

// consolidate replaces the grown slab chain with one slab of the
// combined capacity, rewound to empty. Callers hold the busy guard.
func (a *Arena) consolidate() {
	total := len(a.cur)
	for _, s := range a.full {
		total += len(s)
	}
	a.full = nil
	a.cur = make([]byte, total)
	a.off = 0
	a.grown = 0
}

// Reset returns every outstanding checkout to the arena and bumps the
// generation stamp, invalidating all live marks. Call it between
// benchmark rounds, when nothing checked out in the previous round is
// referenced anymore. If the previous generation overflowed into extra
// slabs, Reset consolidates them into one slab of the combined size, so
// the steady state is a single slab and Reset is two stores.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.busy.enter()
	defer a.busy.exit()
	a.gen++
	a.notes.prune(a.gen)
	if len(a.full) > 0 {
		a.consolidate()
	}
	a.off = 0
	a.grown = 0
}

// Stats reports the arena's current shape, for the memory-telemetry
// layer and tests.
type Stats struct {
	Capacity int    // total slab bytes resident
	Used     int    // bytes checked out of the current slab
	Slabs    int    // slab count (1 in steady state)
	Gen      uint32 // generation stamp
}

func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	cap := len(a.cur)
	for _, s := range a.full {
		cap += len(s)
	}
	return Stats{Capacity: cap, Used: a.off, Slabs: len(a.full) + 1, Gen: a.gen}
}

// Alloc checks n elements of type T out of a, zeroed — the drop-in
// replacement for make([]T, n). T must be explicit at the call site and
// the length type is inferred: arena.Alloc[int32](a, nblocks).
//
// Falls back to make when a is nil, T contains pointers (the arena
// backing is not scanned by the garbage collector, so storing pointers
// in it would be unsound), or T has zero size.
func Alloc[T any, I Integer](a *Arena, n I) []T {
	s := AllocUninit[T](a, n)
	clear(s)
	return s
}

// AllocUninit is Alloc without the zeroing: the returned slice may
// contain garbage from earlier generations. Use it when every element
// is written before being read (ping-pong buffers, scatter targets with
// certified-total coverage).
func AllocUninit[T any, I Integer](a *Arena, n I) []T {
	nn := int(n)
	if nn < 0 {
		panic("arena: negative checkout length")
	}
	size := int(unsafe.Sizeof(*new(T)))
	if a == nil || size == 0 || hasPointers[T]() {
		return make([]T, nn)
	}
	a.busy.enter()
	defer a.busy.exit()
	a.notes.record(a.gen)
	bytes := nn * size
	if bytes/size != nn {
		panic("arena: checkout size overflow")
	}
	p := a.bump(bytes)
	if p == nil {
		return nil // nn == 0
	}
	return unsafe.Slice((*T)(p), nn)
}

// bump carves n bytes (8-byte aligned) out of the current slab, growing
// a fresh slab when it does not fit. Returns nil for n == 0.
func (a *Arena) bump(n int) unsafe.Pointer {
	if n == 0 {
		return nil
	}
	const align = 8
	off := (a.off + align - 1) &^ (align - 1)
	if off+n > len(a.cur) {
		a.grow(n)
		off = 0
	}
	p := unsafe.Pointer(&a.cur[off])
	a.off = off + n
	return p
}

// grow retires the current slab and installs a new one big enough for
// n bytes, at least doubling so repeated growth is geometric.
func (a *Arena) grow(n int) {
	want := 2 * len(a.cur)
	if want < n {
		want = n
	}
	if want < minSlab {
		want = minSlab
	}
	if len(a.cur) > 0 {
		a.full = append(a.full, a.cur)
	}
	a.cur = make([]byte, want)
	a.off = 0
	a.grown += n
}

// hasPointers reports whether T contains pointers (and therefore must
// not live in arena memory). The reflect answer is cached per type; the
// steady-state cost is one lock-free map load.
func hasPointers[T any]() bool {
	t := reflect.TypeFor[T]()
	if v, ok := ptrFreeCache.Load(t); ok {
		return v.(bool)
	}
	// Pointers, maps, chans, funcs, slices, strings, interfaces — and
	// aggregates containing them — all make the GC scan the memory.
	has := typeHasPointers(t)
	ptrFreeCache.Store(t, has)
	return has
}

var ptrFreeCache sync.Map // reflect.Type -> bool

func typeHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && typeHasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if typeHasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
