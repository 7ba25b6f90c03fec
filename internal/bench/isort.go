package bench

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/seqgen"
)

// isort — integer sort (PBBS): stable LSD radix sort over exponentially
// distributed keys. Each pass computes the destination position of every
// element (Block counting + scan) and then scatters through the position
// array — the SngInd pattern of Listing 6, whose independence follows
// from positions being a permutation but is invisible to any checker.
//
// Modes: core.Scatter scatters directly when unchecked (the unsafe
// analog) and pays the uniqueness check first when checked;
// synchronized scatters with atomic stores (Listing 6(e) — races
// undetected but "placated").

const isortDigitBits = 8
const isortRadix = 1 << isortDigitBits
const isortBlock = 1 << 14

type isortInstance struct {
	orig []uint32
	keys []uint32
	bits int
	want []uint32
}

func (s *isortInstance) reset() { copy(s.keys, s.orig) }

// isortPass is the caller's side of one digit pass (core.CountSort):
// both halves key element i by the digit of keys[i] at shift, and the
// place half records the slot its block's cursor hands out as pos[i],
// the element's destination.
type isortPass struct {
	keys  []uint32
	pos   []int32
	shift uint
}

func (p *isortPass) CountRange(c core.Counter, lo, hi int) {
	keys, shift := p.keys, p.shift
	for i := lo; i < hi; i++ {
		c.Add(int(keys[i]>>shift) & (isortRadix - 1))
	}
}

func (p *isortPass) PlaceRange(c core.Cursor, lo, hi int) {
	keys, pos, shift := p.keys, p.pos, p.shift
	for i := lo; i < hi; i++ {
		pos[i] = c.Next(int(keys[i]>>shift) & (isortRadix - 1))
	}
}

func (s *isortInstance) runLibrary(w *core.Worker) {
	n := len(s.keys)
	// Round scratch: positions and the ping-pong buffer come from the
	// worker's arena, the count matrix from core.CountSort's.
	a := arena.Of(w)
	am := a.Mark()
	pos := arena.AllocUninit[int32](a, n)
	buf := arena.AllocUninit[uint32](a, n)
	var pass isortPass
	pass.pos = pos
	src, dst := s.keys, buf
	passes := (s.bits + isortDigitBits - 1) / isortDigitBits
	mode := core.GetMode()
	// The synchronized body captures src/dst by reference, so the same
	// closure serves every pass of the ping-pong.
	syncScatter := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreUint32(&dst[pos[i]], src[i])
		}
	}
	for p := 0; p < passes; p++ {
		pass.keys, pass.shift = src, uint(p*isortDigitBits)
		core.CountDynamic(core.Stride)
		core.CountSort(w, n, isortRadix, nil, pass)
		if mode != core.ModeSynchronized {
			// SngInd: under ModeChecked the positions are validated to be
			// a permutation at run time (the paper's par_ind_iter_mut
			// analog); otherwise the scatter runs unchecked.
			if err := core.Scatter(w, dst, pos, src); err != nil {
				panic(fmt.Sprintf("isort: position check failed: %v", err))
			}
		} else {
			// Atomic stores placate the type system but validate nothing.
			core.ForBlocks(w, 0, n, 0, syncScatter)
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		core.CopyInto(w, s.keys, src)
	}
	a.Release(am)
}

func (s *isortInstance) runDirect(nThreads int) {
	n := len(s.keys)
	pos := make([]int32, n)
	buf := make([]uint32, n)
	src, dst := s.keys, buf
	passes := (s.bits + isortDigitBits - 1) / isortDigitBits
	nb := (n + isortBlock - 1) / isortBlock
	for p := 0; p < passes; p++ {
		shift := uint(p * isortDigitBits)
		counts := make([]int32, isortRadix*nb)
		directFor(nThreads, nb, func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				lo, hi := b*isortBlock, (b+1)*isortBlock
				if hi > n {
					hi = n
				}
				var local [isortRadix]int32
				for i := lo; i < hi; i++ {
					local[(src[i]>>shift)&(isortRadix-1)]++
				}
				for d := 0; d < isortRadix; d++ {
					counts[d*nb+b] = local[d]
				}
			}
		})
		directScanExclusive(nThreads, counts)
		directFor(nThreads, nb, func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				lo, hi := b*isortBlock, (b+1)*isortBlock
				if hi > n {
					hi = n
				}
				var cursor [isortRadix]int32
				for d := 0; d < isortRadix; d++ {
					cursor[d] = counts[d*nb+b]
				}
				for i := lo; i < hi; i++ {
					d := (src[i] >> shift) & (isortRadix - 1)
					pos[i] = cursor[d]
					cursor[d]++
				}
			}
		})
		directFor(nThreads, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[pos[i]] = src[i]
			}
		})
		src, dst = dst, src
	}
	if passes%2 == 1 {
		directFor(nThreads, n, func(lo, hi int) {
			copy(s.keys[lo:hi], src[lo:hi])
		})
	}
}

func (s *isortInstance) verify() error {
	for i := range s.keys {
		if s.keys[i] != s.want[i] {
			return fmt.Errorf("isort: keys[%d] = %d, want %d", i, s.keys[i], s.want[i])
		}
	}
	return nil
}

func init() {
	core.DeclareSite("isort", "count: keys read", core.RO)
	core.DeclareSite("isort", "count: block count write", core.Block)
	core.DeclareSite("isort", "count: scan", core.Block)
	core.DeclareSite("isort", "pos: keys read", core.RO)
	core.DeclareSite("isort", "pos: position write", core.Stride)
	core.DeclareSite("isort", "scatter: src read", core.RO)
	core.DeclareSite("isort", "scatter: pos read", core.RO)
	core.DeclareSite("isort", "scatter: dst write by position", core.SngInd)
	core.DeclareSite("isort", "final copy-back write", core.Stride)

	Register(Spec{
		Name:   "isort",
		Long:   "integer sort",
		Inputs: []string{"exponential"},
		Make: func(input string, scale Scale) *Instance {
			n := SeqSize(scale)
			orig := seqgen.ExponentialInts(nil, n, 0x1507)
			var maxKey uint32
			for _, k := range orig {
				if k > maxKey {
					maxKey = k
				}
			}
			bits := 1
			for v := maxKey; v > 1; v >>= 1 {
				bits++
			}
			want := append([]uint32(nil), orig...)
			core.Sort(nil, want)
			s := &isortInstance{
				orig: orig,
				keys: append([]uint32(nil), orig...),
				bits: bits,
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
