package bench

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/seqgen"
)

// hist — histogram (PBBS) over exponentially distributed keys.
//
// Expressions by mode:
//   - unchecked/checked: per-block private histograms merged per bucket
//     (Block + Stride) — no synchronization needed by construction;
//   - synchronized: the paper's Fig 5b configuration — buckets are
//     structs too large for hardware atomics, so every update locks the
//     bucket (ShardedLocks), the "unnecessary synchronization" case
//     that costs ~4x.
const histBuckets = 4096

// bigBucket mimics PBBS hist's large per-bucket aggregate: too big for
// a single atomic, forcing a Mutex in the synchronized expression.
type bigBucket struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

type histInstance struct {
	keys   []uint32
	counts []int64
	big    []bigBucket
	locks  *core.ShardedLocks
	oracle []int64
}

const histBlockSize = 1 << 14

func (h *histInstance) reset() {
	for i := range h.counts {
		h.counts[i] = 0
		h.big[i] = bigBucket{Min: 1 << 62}
	}
}

// runLibrary is the RPB expression.
func (h *histInstance) runLibrary(w *core.Worker) {
	if core.GetMode() == core.ModeSynchronized {
		// Big-struct buckets guarded by per-bucket locks (Fig 5b hist).
		core.ForRange(w, 0, len(h.keys), 0, func(i int) {
			b := int(h.keys[i]) % histBuckets
			v := int64(h.keys[i])
			h.locks.With(b, func() {
				bb := &h.big[b]
				bb.Count++  //lint:scared bb is &h.big[b], written only inside h.locks.With(b, ...): every writer of bucket b holds b's shard lock
				bb.Sum += v //lint:scared bb is &h.big[b], written only inside h.locks.With(b, ...): every writer of bucket b holds b's shard lock
				if v < bb.Min {
					bb.Min = v //lint:scared bb is &h.big[b], written only inside h.locks.With(b, ...): every writer of bucket b holds b's shard lock
				}
				if v > bb.Max {
					bb.Max = v //lint:scared bb is &h.big[b], written only inside h.locks.With(b, ...): every writer of bucket b holds b's shard lock
				}
			})
		})
		for b := range h.counts {
			h.counts[b] = h.big[b].Count
		}
		return
	}
	// Blocked private histograms (Block), merged per bucket (Stride).
	// The block-local histograms are one flat arena checkout — chunk ci
	// owns locals[ci*histBuckets:(ci+1)*histBuckets], cleared by the
	// chunk that owns it — so the steady-state round allocates nothing.
	n := len(h.keys)
	nb := (n + histBlockSize - 1) / histBlockSize
	a := arena.Of(w)
	m := a.Mark()
	locals := arena.AllocUninit[int64](a, nb*histBuckets)
	core.Chunks(w, h.keys, histBlockSize, func(ci int, chunk []uint32) {
		local := locals[ci*histBuckets : (ci+1)*histBuckets]
		clear(local) //lint:scared local is locals[ci*histBuckets:(ci+1)*histBuckets], chunk ci's own segment of the checkout
		for _, k := range chunk {
			local[int(k)%histBuckets]++ //lint:scared local is locals[ci*histBuckets:(ci+1)*histBuckets], chunk ci's own segment of the checkout; the index stays below histBuckets
		}
	})
	core.ForRange(w, 0, histBuckets, 0, func(b int) {
		var total int64
		for ci := 0; ci < nb; ci++ {
			total += locals[ci*histBuckets+b]
		}
		h.counts[b] = total
	})
	a.Release(m)
}

// runDirect is the hand-rolled baseline: per-thread private histograms.
func (h *histInstance) runDirect(nThreads int) {
	n := len(h.keys)
	nb := (n + histBlockSize - 1) / histBlockSize
	locals := make([][]int64, nb)
	directFor(nThreads, nb, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			s, e := ci*histBlockSize, (ci+1)*histBlockSize
			if e > n {
				e = n
			}
			local := make([]int64, histBuckets)
			for _, k := range h.keys[s:e] {
				local[int(k)%histBuckets]++
			}
			locals[ci] = local
		}
	})
	directFor(nThreads, histBuckets, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			var total int64
			for ci := 0; ci < nb; ci++ {
				total += locals[ci][b]
			}
			h.counts[b] = total
		}
	})
}

func (h *histInstance) verify() error {
	for b := range h.oracle {
		if h.counts[b] != h.oracle[b] {
			return fmt.Errorf("hist: bucket %d = %d, want %d", b, h.counts[b], h.oracle[b])
		}
	}
	return nil
}

func init() {
	core.DeclareSite("hist", "count: keys read", core.RO)
	core.DeclareSite("hist", "count: block-local histogram write", core.Block)
	core.DeclareSite("hist", "merge: locals read", core.RO)
	core.DeclareSite("hist", "merge: counts write", core.Stride)
	core.DeclareSite("hist", "bucket update via key (indirect)", core.SngInd)

	Register(Spec{
		Name:   "hist",
		Long:   "histogram",
		Inputs: []string{"exponential"},
		Make: func(input string, scale Scale) *Instance {
			n := SeqSize(scale)
			h := &histInstance{
				keys:   seqgen.ExponentialInts(nil, n, 0x415),
				counts: make([]int64, histBuckets),
				big:    make([]bigBucket, histBuckets),
				locks:  core.NewShardedLocks(histBuckets),
				oracle: make([]int64, histBuckets),
			}
			for _, k := range h.keys {
				h.oracle[int(k)%histBuckets]++
			}
			h.reset()
			return &Instance{
				RunLibrary: h.runLibrary,
				RunDirect:  h.runDirect,
				Verify:     h.verify,
				Reset:      h.reset,
			}
		},
	})
}
