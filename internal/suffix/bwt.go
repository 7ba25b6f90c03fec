package suffix

import (
	"repro/internal/core"
)

// BWTDecode inverts BWTEncode: given the last column over the rotations
// of s+"\x00" (sentinel byte 0 appearing exactly once), it reconstructs
// s. This is the bw benchmark's kernel.
//
// The decode is the paper's showcase of mixed regularity: computing the
// LF mapping is one stable counting-sort pass (Block counts + scan +
// disjoint cursor writes), and reconstruction uses parallel list
// ranking by pointer doubling — Stride passes whose final scatter
// out[n-1-t(i)] = L[i] is SngInd, independent because the walk
// positions t(i) form a permutation.
func BWTDecode(w *core.Worker, bwt []byte) []byte {
	return BWTDecodeOpts(w, bwt, false)
}

// BWTDecodeOpts is BWTDecode with the SngInd expression switch: when
// checked is true the final scatter through the walk-position
// permutation goes through core.ScatterChecked (run-time uniqueness
// check, Fig 5a); otherwise it is the unchecked unsafe-analog scatter.
func BWTDecodeOpts(w *core.Worker, bwt []byte, checked bool) []byte {
	n1 := len(bwt) // n+1 including sentinel
	if n1 <= 1 {
		return nil
	}
	lf := lfMapping(w, bwt)
	// Break the cycle at the sentinel row: the node z with bwt[z] == 0
	// is the last node of the walk that starts at row 0.
	const nilNode = int32(-1)
	nxt := make([]int32, n1)
	dst := make([]int32, n1)
	core.ForBlocks(w, 0, n1, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if bwt[i] == 0 {
				nxt[i] = nilNode
				dst[i] = 0
			} else {
				nxt[i] = lf[i]
				dst[i] = 1
			}
		}
	})
	// Pointer doubling: after ceil(log2(n1)) rounds every node points at
	// NIL and dst holds its distance to the chain end. The round body
	// reads the ping-pong buffers through the captured variables, so one
	// closure serves every round.
	nxtB := make([]int32, n1)
	dstB := make([]int32, n1)
	double := func(lo, hi int) {
		nxt, dst, nxtB, dstB := nxt, dst, nxtB, dstB // this round's buffers, out of the captured cells
		for i := lo; i < hi; i++ {
			if nx := nxt[i]; nx != nilNode {
				dstB[i] = dst[i] + dst[nx]
				nxtB[i] = nxt[nx]
			} else {
				dstB[i] = dst[i]
				nxtB[i] = nilNode
			}
		}
	}
	for span := 1; span < n1; span *= 2 {
		core.ForBlocks(w, 0, n1, 0, double)
		nxt, nxtB = nxtB, nxt
		dst, dstB = dstB, dst
	}
	n := n1 - 1
	// Row i's character lands at output position dst[i]-1 (the sentinel
	// row has dst == 0). Writing through buf[dst[i]] makes the targets a
	// permutation of [0, n1) — a SngInd scatter whose independence only
	// the algorithm knows.
	buf := make([]byte, n1)
	if checked {
		if err := core.ScatterChecked(w, buf, dst, bwt); err != nil {
			panic("suffix: decode positions not a permutation: " + err.Error())
		}
	} else {
		core.ScatterUnchecked(w, buf, dst, bwt)
	}
	return buf[1 : n+1]
}

// lfMapping computes the LF map: lf[i] is the row reached by one
// backward step in the BWT, equal to the stable-sorted position of
// bwt[i]. It is one counting-sort pass (core.CountSort) keyed by
// character, with the slots recorded instead of moved to.
func lfMapping(w *core.Worker, bwt []byte) []int32 {
	lf := make([]int32, len(bwt))
	core.CountDynamic(core.Stride)
	core.CountSort(w, len(bwt), 256, nil, lfBody{bwt: bwt, lf: lf})
	return lf
}

// lfBody is lfMapping's side of the counting sort: row i is keyed by
// its character, and its slot is lf[i].
type lfBody struct {
	bwt []byte
	lf  []int32
}

func (b *lfBody) CountRange(c core.Counter, lo, hi int) {
	for _, ch := range b.bwt[lo:hi] {
		c.Add(int(ch))
	}
}

func (b *lfBody) PlaceRange(c core.Cursor, lo, hi int) {
	bwt, lf := b.bwt, b.lf
	for i := lo; i < hi; i++ {
		lf[i] = c.Next(int(bwt[i]))
	}
}

// BWTDecodeSequential is the straightforward sequential inverse BWT —
// the oracle for tests and the 1-thread baseline.
func BWTDecodeSequential(bwt []byte) []byte {
	n1 := len(bwt)
	if n1 <= 1 {
		return nil
	}
	lf := lfMapping(nil, bwt)
	n := n1 - 1
	out := make([]byte, n)
	p := int32(0)
	for t := 0; t < n; t++ {
		out[n-1-t] = bwt[p]
		p = lf[p]
	}
	return out
}
