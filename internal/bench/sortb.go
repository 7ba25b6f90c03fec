package bench

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/qsort"
	"repro/internal/seqgen"
)

// sort — comparison sort (PBBS sample sort): sample splitters, classify
// elements into buckets with the library's blocked counting sort
// (core.CountSort, disjoint by construction), then sort each bucket.
// Bucket boundaries are the engine's starts, an offsets array, and
// per-bucket sorting is expressed through the RngInd adapter — exactly
// the paper's observation that "sort only has RngInd, so is comfortable
// to express but not fearless". Modes: checked uses core.IndChunks
// (cheap monotonicity validation), others use the unchecked variant.
// Both variants sort a bucket with qsort.Sort, a branch-free quicksort,
// as RPB's leaf is Rust's sort_unstable. runDirect hand-rolls the same
// count, scan and scatter on plain goroutines, in blocks of sortBlock —
// CountSort's own block for 256 keys, max(2^14, 4·256).

const sortBuckets = 256
const sortOversample = 16
const sortBlock = 1 << 14

type sortInstance struct {
	orig []uint32
	keys []uint32
	want []uint32
}

func (s *sortInstance) reset() { copy(s.keys, s.orig) }

// classify returns the bucket of x given sorted splitters: the number
// of splitters <= x. It is a binary search written without a
// data-dependent branch — the comparison becomes a 0/1 that masks the
// step — because the splitter comparisons of random keys are coin
// flips: the branching form spends most of its time mispredicting
// (41 ns vs 16 ns per key over 255 splitters).
func classify(splitters []uint32, x uint32) int {
	base, n := 0, len(splitters)
	for n > 1 {
		half := n >> 1
		le := 0
		if splitters[base+half-1] <= x {
			le = 1
		}
		base += half & -le
		n -= half
	}
	if n == 1 && splitters[base] <= x {
		base++
	}
	return base
}

// sortPass is the caller's side of the bucket pass (core.CountSort):
// the count half classifies keys[i] among the splitters and records its
// bucket in bucketOf[i], and the place half moves keys[i] to the slot
// its block's cursor hands out for that bucket.
type sortPass struct {
	keys, splitters, buf []uint32
	bucketOf             []uint8
}

func (p *sortPass) CountRange(c core.Counter, lo, hi int) {
	keys, splitters, bucketOf := p.keys, p.splitters, p.bucketOf
	for i := lo; i < hi; i++ {
		bk := classify(splitters, keys[i])
		bucketOf[i] = uint8(bk)
		c.Add(bk)
	}
}

func (p *sortPass) PlaceRange(c core.Cursor, lo, hi int) {
	keys, buf, bucketOf := p.keys, p.buf, p.bucketOf
	for i := lo; i < hi; i++ {
		buf[c.Next(int(bucketOf[i]))] = keys[i]
	}
}

func (s *sortInstance) runLibrary(w *core.Worker) {
	n := len(s.keys)
	if n <= sortBlock {
		core.Sort(w, s.keys)
		return
	}
	// Every round buffer below is a checkout from the worker's arena
	// (docs/MEMORY.md); after warm-up the steady state allocates nothing.
	// offsets uses the zeroed Alloc — the scan proof's zero-init
	// precondition — while the fully-overwritten buffers take the
	// uninitialized form.
	a := arena.Of(w)
	am := a.Mark()
	// Sample and pick splitters (RO).
	r := seqgen.NewRng(0x5a5a)
	samples := arena.AllocUninit[uint32](a, sortBuckets*sortOversample)
	keys := s.keys
	core.ForBlocks(w, 0, len(samples), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			samples[i] = keys[r.Intn(uint64(i), n)]
		}
	})
	core.Sort(w, samples)
	splitters := arena.AllocUninit[uint32](a, sortBuckets-1)
	for i := range splitters {
		splitters[i] = samples[(i+1)*sortOversample]
	}
	// Classify, count and scatter into bucket order: one blocked
	// counting sort (core.CountSort), whose cursors hand every block a
	// segment of each bucket no other block enters. offsets comes back
	// as the buckets' starts — exclusive prefix sums of non-negative
	// counts, offsets[sortBuckets] = n — the scan provenance the
	// certifier proves, so the RngInd adapter below runs unchecked under
	// certificate.
	offsets := arena.Alloc[int32](a, sortBuckets+1)
	bucketOf := arena.AllocUninit[uint8](a, n)
	buf := arena.AllocUninit[uint32](a, n)
	core.CountDynamic(core.Stride)
	core.CountSort(w, n, sortBuckets, offsets, sortPass{keys: keys, splitters: splitters, buf: buf, bucketOf: bucketOf})
	// Sort each bucket through the RngInd adapter.
	sortChunk := func(_ int, chunk []uint32) { qsort.Sort(chunk) }
	if core.GetMode() == core.ModeChecked {
		if err := core.IndChunks(w, buf, offsets, sortChunk); err != nil {
			panic(fmt.Sprintf("sort: boundary check failed: %v", err))
		}
	} else {
		core.IndChunksUnchecked(w, buf, offsets, sortChunk)
	}
	core.CopyInto(w, keys, buf)
	a.Release(am)
}

// runDirect is the same sample sort on plain goroutines, at every
// thread count, one included: the one-thread baseline is the library's
// algorithm without the pattern layer (PBBS's and the paper's
// same-code-fewer-threads method; see dr's runDirect).
func (s *sortInstance) runDirect(nThreads int) {
	n := len(s.keys)
	if n <= sortBlock {
		qsort.Sort(s.keys)
		return
	}
	r := seqgen.NewRng(0x5a5a)
	samples := make([]uint32, sortBuckets*sortOversample)
	for i := range samples {
		samples[i] = s.keys[r.Intn(uint64(i), n)]
	}
	qsort.Sort(samples)
	splitters := make([]uint32, sortBuckets-1)
	for i := range splitters {
		splitters[i] = samples[(i+1)*sortOversample]
	}
	nb := (n + sortBlock - 1) / sortBlock
	counts := make([]int32, sortBuckets*nb)
	bucketOf := make([]uint8, n)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*sortBlock, (b+1)*sortBlock
			if hi > n {
				hi = n
			}
			var local [sortBuckets]int32
			for i := lo; i < hi; i++ {
				bk := classify(splitters, s.keys[i])
				bucketOf[i] = uint8(bk)
				local[bk]++
			}
			for d := 0; d < sortBuckets; d++ {
				counts[d*nb+b] = local[d]
			}
		}
	})
	directScanExclusive(nThreads, counts)
	buf := make([]uint32, n)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*sortBlock, (b+1)*sortBlock
			if hi > n {
				hi = n
			}
			var cursor [sortBuckets]int32
			for d := 0; d < sortBuckets; d++ {
				cursor[d] = counts[d*nb+b]
			}
			for i := lo; i < hi; i++ {
				d := bucketOf[i]
				buf[cursor[d]] = s.keys[i]
				cursor[d]++
			}
		}
	})
	directFor(nThreads, sortBuckets, func(dlo, dhi int) {
		for d := dlo; d < dhi; d++ {
			start := counts[d*nb]
			end := int32(n)
			if d+1 < sortBuckets {
				end = counts[(d+1)*nb]
			}
			qsort.Sort(buf[start:end])
		}
	})
	copy(s.keys, buf)
}

func (s *sortInstance) verify() error {
	for i := range s.keys {
		if s.keys[i] != s.want[i] {
			return fmt.Errorf("sort: keys[%d] = %d, want %d", i, s.keys[i], s.want[i])
		}
	}
	return nil
}

func init() {
	core.DeclareSite("sort", "sample: keys read", core.RO)
	core.DeclareSite("sort", "sample: samples write", core.Stride)
	core.DeclareSite("sort", "sample: splitter sort", core.DC)
	core.DeclareSite("sort", "classify: keys read", core.RO)
	core.DeclareSite("sort", "classify: splitters read", core.RO)
	core.DeclareSite("sort", "classify: bucketOf write", core.Stride)
	core.DeclareSite("sort", "classify: block count write", core.Block)
	core.DeclareSite("sort", "count scan", core.Block)
	core.DeclareSite("sort", "scatter: buf cursor write", core.Stride)
	core.DeclareSite("sort", "bucket sort: chunk rewrite", core.RngInd)
	core.DeclareSite("sort", "final copy-back write", core.Stride)

	Register(Spec{
		Name:   "sort",
		Long:   "comparison sort",
		Inputs: []string{"exponential"},
		Make: func(input string, scale Scale) *Instance {
			n := SeqSize(scale)
			orig := seqgen.ExponentialInts(nil, n, 0x50e7)
			want := append([]uint32(nil), orig...)
			core.Sort(nil, want)
			s := &sortInstance{
				orig: orig,
				keys: append([]uint32(nil), orig...),
				want: want,
			}
			return &Instance{
				RunLibrary: s.runLibrary,
				RunDirect:  s.runDirect,
				Verify:     s.verify,
				Reset:      s.reset,
			}
		},
	})
}
