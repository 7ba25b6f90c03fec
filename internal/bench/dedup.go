package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/seqgen"
)

// dedup — remove duplicates (PBBS): insert every key into a phase-
// concurrent hash table (the arbitrary-read-write pattern of Listing 8:
// conflicting CAS insertions on hash-determined slots), then extract the
// distinct keys. All modes share the CAS expression — AW has no
// check-based alternative; this is the paper's "Scared" territory.

type dedupInstance struct {
	keys     []uint32
	table    *hashtable.Set // built once, Reset between rounds
	idx      []int32        // round-persistent pack destination
	out      []uint64       // round-persistent extraction buffer
	distinct int            // result of the last run
	want     int
}

func (d *dedupInstance) reset() {
	d.table.Reset()
}

func (d *dedupInstance) runLibrary(w *core.Worker) {
	table, keys := d.table, d.keys
	core.ForBlocks(w, 0, len(keys), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			table.Insert(uint64(keys[i]))
		}
	})
	// Extract distinct keys with a pack over the table's slots (Block)
	// into the instance's reused destination buffers.
	d.idx = core.PackMaskInto(w, table.Capacity(), table.LiveMask, d.idx)
	idx := d.idx
	d.out = core.EnsureLen(d.out, len(idx))
	out := d.out
	core.ForBlocks(w, 0, len(idx), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k, _ := table.SlotKey(int(idx[i]))
			out[i] = k
		}
	})
	d.distinct = len(out)
}

func (d *dedupInstance) runDirect(nThreads int) {
	// Hand-rolled open-addressing CAS table, inlined probe loop.
	capacity := 16
	for capacity < 2*len(d.keys) {
		capacity <<= 1
	}
	slots := make([]uint64, capacity)
	mask := uint64(capacity - 1)
	var count atomic.Int64
	var wg sync.WaitGroup
	chunk := (len(d.keys) + nThreads - 1) / max(nThreads, 1)
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < len(d.keys); lo += chunk {
		hi := lo + chunk
		if hi > len(d.keys) {
			hi = len(d.keys)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local := int64(0)
			for _, k := range d.keys[lo:hi] {
				ek := uint64(k) + 1
				i := seqgen.Hash64(uint64(k)) & mask
				for {
					cur := atomic.LoadUint64(&slots[i])
					if cur == ek {
						break
					}
					if cur == 0 {
						if atomic.CompareAndSwapUint64(&slots[i], 0, ek) {
							local++
							break
						}
						if atomic.LoadUint64(&slots[i]) == ek {
							break
						}
						continue
					}
					i = (i + 1) & mask
				}
			}
			count.Add(local)
		}(lo, hi)
	}
	wg.Wait()
	d.distinct = int(count.Load())
}

func (d *dedupInstance) verify() error {
	if d.distinct != d.want {
		return fmt.Errorf("dedup: %d distinct keys, want %d", d.distinct, d.want)
	}
	return nil
}

func newDedup(scale Scale) *dedupInstance {
	keys := seqgen.ExponentialInts(nil, SeqSize(scale), 0xDED)
	seen := map[uint32]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	return &dedupInstance{keys: keys, want: len(seen), table: hashtable.NewSet(len(keys))}
}

func init() {
	core.DeclareSite("dedup", "insert: keys read", core.RO)
	core.DeclareSite("dedup", "insert: table slot CAS", core.AW)
	core.DeclareSite("dedup", "extract: slots read", core.RO)
	core.DeclareSite("dedup", "extract: live-slot pack write", core.Block)
	core.DeclareSite("dedup", "extract: out write", core.Stride)

	Register(Spec{
		Name:   "dedup",
		Long:   "remove duplicates",
		Inputs: []string{"exponential"},
		Make: func(input string, scale Scale) *Instance {
			d := newDedup(scale)
			return &Instance{
				RunLibrary: d.runLibrary,
				RunDirect:  d.runDirect,
				Verify:     d.verify,
				Reset:      d.reset,
			}
		},
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
