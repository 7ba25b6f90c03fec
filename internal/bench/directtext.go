package bench

// Hand-rolled baselines for the text benchmarks (sa, lrs, bw): the same
// algorithms as the library expressions — prefix-doubling suffix arrays
// over LSD radix passes, and LF-mapping BWT decode with pointer-jumping
// list ranking — but written directly against goroutines with static
// chunking and no pattern layer, standing in for the paper's C++ PBBS.

const dtxBlock = 1 << 14

// directCountingPass stably sorts (keys, vals) by the 8-bit digit at
// shift, from src into dst arrays.
func directCountingPass(nThreads int, srcK, dstK []uint64, srcV, dstV []int32, shift uint) {
	n := len(srcK)
	nb := (n + dtxBlock - 1) / dtxBlock
	counts := make([]int32, 256*nb)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*dtxBlock, (b+1)*dtxBlock
			if hi > n {
				hi = n
			}
			var local [256]int32
			for i := lo; i < hi; i++ {
				local[(srcK[i]>>shift)&255]++
			}
			for d := 0; d < 256; d++ {
				counts[d*nb+b] = local[d]
			}
		}
	})
	directScanExclusive(nThreads, counts)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*dtxBlock, (b+1)*dtxBlock
			if hi > n {
				hi = n
			}
			var cursor [256]int32
			for d := 0; d < 256; d++ {
				cursor[d] = counts[d*nb+b]
			}
			for i := lo; i < hi; i++ {
				d := (srcK[i] >> shift) & 255
				at := cursor[d]
				cursor[d]++
				dstK[at] = srcK[i]
				dstV[at] = srcV[i]
			}
		}
	})
}

// directSortPairs is the LSD radix sort over directCountingPass, with
// the caller's ping-pong buffers (at least len(keys) long).
func directSortPairs(nThreads int, keys []uint64, vals []int32, bits int, kBuf []uint64, vBuf []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	passes := (bits + 7) / 8
	if passes == 0 {
		passes = 1
	}
	srcK, dstK, srcV, dstV := keys, kBuf[:n], vals, vBuf[:n]
	for p := 0; p < passes; p++ {
		directCountingPass(nThreads, srcK, dstK, srcV, dstV, uint(p*8))
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if passes%2 == 1 {
		directFor(nThreads, n, func(lo, hi int) {
			copy(keys[lo:hi], srcK[lo:hi])
			copy(vals[lo:hi], srcV[lo:hi])
		})
	}
}

func bitsFor(max uint64) int {
	b := 0
	for max > 0 {
		b++
		max >>= 1
	}
	if b == 0 {
		b = 1
	}
	return b
}

// directSuffixArray is suffix.ArrayOpts' algorithm with hand-rolled
// passes: one radix sort of packed first-h-character keys, then rounds
// that re-sort only the positions still tied, each ending in a
// full-length rank write. Every buffer is allocated once per call.
func directSuffixArray(nThreads int, s []byte) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	nb := (n + dtxBlock - 1) / dtxBlock
	seen := make([][256]bool, nb)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			for _, c := range s[b*dtxBlock : min((b+1)*dtxBlock, n)] {
				seen[b][c] = true
			}
		}
	})
	var code [256]uint64
	sigma := uint64(0)
	for c := range code {
		for b := range seen {
			if seen[b][c] {
				sigma++
				code[c] = sigma
				break
			}
		}
	}
	cb := bitsFor(sigma)
	h := 64 / cb
	keyBits := h * cb
	keyMask := ^uint64(0) >> (64 - keyBits)
	sa := make([]int32, n)
	rank := make([]int32, n)
	grp := make([]int32, n)
	at := make([]int32, n)
	spare := make([]int32, n)
	gathered := make([]int32, n)
	vBuf := make([]int32, n)
	keys := make([]uint64, n)
	kBuf := make([]uint64, n)
	writeRanks := func() {
		directFor(nThreads, n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				rank[sa[j]] = grp[j]
			}
		})
	}
	directFor(nThreads, n, func(lo, hi int) {
		var key uint64
		for t := lo; t < lo+h; t++ {
			key <<= cb
			if t < n {
				key |= code[s[t]]
			}
		}
		for i := lo; i < hi; i++ {
			sa[i] = int32(i)
			keys[i] = key
			key <<= cb
			if i+h < n {
				key |= code[s[i+h]]
			}
			key &= keyMask
		}
	})
	directSortPairs(nThreads, keys, sa, keyBits, kBuf, vBuf)
	directGroupStarts(nThreads, keys, nil, grp, grp)
	writeRanks()
	at = directPackTied(nThreads, keys, nil, at)
	rankBits := bitsFor(uint64(n))
	for k := h; len(at) > 0; k *= 2 {
		m := len(at)
		ck, g := keys[:m], gathered[:m]
		directFor(nThreads, m, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				j := at[t]
				i := int(sa[j])
				var next uint64
				if i+k < n {
					next = uint64(rank[i+k]) + 1
				}
				ck[t] = uint64(grp[j])<<rankBits | next
				g[t] = int32(i)
			}
		})
		directSortPairs(nThreads, ck, g, 2*rankBits, kBuf, vBuf)
		directFor(nThreads, m, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				sa[at[t]] = g[t]
			}
		})
		directGroupStarts(nThreads, ck, at, spare[:m], grp)
		writeRanks()
		at, spare = directPackTied(nThreads, ck, at, spare), at
	}
	return sa
}

// directGroupStarts writes into grp, at each sorted key t's position
// (at[t], or t when at is nil), the position where its run of equal
// keys starts: boundary flags, then a chunked two-pass running max.
// flags (len(keys) long) may alias grp when at is nil.
func directGroupStarts(nThreads int, keys []uint64, at, flags, grp []int32) {
	m := len(keys)
	pos := func(t int) int32 {
		if at == nil {
			return int32(t)
		}
		return at[t]
	}
	directFor(nThreads, m, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			flags[t] = 0
			if t == 0 || keys[t] != keys[t-1] {
				flags[t] = pos(t)
			}
		}
	})
	nb := (m + dtxBlock - 1) / dtxBlock
	maxes := make([]int32, nb)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			var mx int32
			for _, f := range flags[b*dtxBlock : min((b+1)*dtxBlock, m)] {
				if f > mx {
					mx = f
				}
			}
			maxes[b] = mx
		}
	})
	var running int32
	for b := range maxes {
		mx := maxes[b]
		maxes[b] = running
		if mx > running {
			running = mx
		}
	}
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			acc := maxes[b]
			for t := b * dtxBlock; t < min((b+1)*dtxBlock, m); t++ {
				if flags[t] > acc {
					acc = flags[t]
				}
				grp[pos(t)] = acc
			}
		}
	})
}

// directPackTied writes, in order, the position (at[t], or t when at is
// nil) of every sorted key t equal to a neighbour's into dst and
// returns the packed prefix: the positions still tied. dst must not
// alias at.
func directPackTied(nThreads int, keys []uint64, at, dst []int32) []int32 {
	m := len(keys)
	tied := func(t int) bool {
		return (t > 0 && keys[t] == keys[t-1]) || (t+1 < m && keys[t+1] == keys[t])
	}
	nb := (m + dtxBlock - 1) / dtxBlock
	counts := make([]int32, nb)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			for t := b * dtxBlock; t < min((b+1)*dtxBlock, m); t++ {
				if tied(t) {
					counts[b]++
				}
			}
		}
	})
	total := directScanExclusive(nThreads, counts)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			cur := counts[b]
			for t := b * dtxBlock; t < min((b+1)*dtxBlock, m); t++ {
				if tied(t) {
					if at == nil {
						dst[cur] = int32(t)
					} else {
						dst[cur] = at[t]
					}
					cur++
				}
			}
		}
	})
	return dst[:total]
}

// directBWTDecode inverts a BWT with hand-rolled LF mapping and pointer
// jumping.
func directBWTDecode(nThreads int, bwt []byte) []byte {
	n1 := len(bwt)
	if n1 <= 1 {
		return nil
	}
	// LF mapping: one counting pass.
	nb := (n1 + dtxBlock - 1) / dtxBlock
	counts := make([]int32, 256*nb)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*dtxBlock, (b+1)*dtxBlock
			if hi > n1 {
				hi = n1
			}
			var local [256]int32
			for i := lo; i < hi; i++ {
				local[bwt[i]]++
			}
			for c := 0; c < 256; c++ {
				counts[c*nb+b] = local[c]
			}
		}
	})
	directScanExclusive(nThreads, counts)
	lf := make([]int32, n1)
	directFor(nThreads, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*dtxBlock, (b+1)*dtxBlock
			if hi > n1 {
				hi = n1
			}
			var cursor [256]int32
			for c := 0; c < 256; c++ {
				cursor[c] = counts[c*nb+b]
			}
			for i := lo; i < hi; i++ {
				lf[i] = cursor[bwt[i]]
				cursor[bwt[i]]++
			}
		}
	})
	// Pointer jumping for walk distances.
	const nilNode = int32(-1)
	nxt := make([]int32, n1)
	dst := make([]int32, n1)
	directFor(nThreads, n1, func(lo, hi int) {
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
	nxtB := make([]int32, n1)
	dstB := make([]int32, n1)
	for span := 1; span < n1; span *= 2 {
		directFor(nThreads, n1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if nx := nxt[i]; nx != nilNode {
					dstB[i] = dst[i] + dst[nx]
					nxtB[i] = nxt[nx]
				} else {
					dstB[i] = dst[i]
					nxtB[i] = nilNode
				}
			}
		})
		nxt, nxtB = nxtB, nxt
		dst, dstB = dstB, dst
	}
	n := n1 - 1
	buf := make([]byte, n1)
	directFor(nThreads, n1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[dst[i]] = bwt[i]
		}
	})
	return buf[1 : n+1]
}
