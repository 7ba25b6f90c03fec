package graph

// The byte codec behind CGraph (docs/GRAPH.md "Compressed CSR"): each
// vertex's sorted neighbor row is stored as a zigzag-encoded varint
// delta of the first neighbor from the vertex id, followed by the gaps
// between consecutive neighbors in *group-varint* form (the
// stream-vbyte layout): gaps are encoded in groups of gvGroup=8, each
// group led by a 2-byte control word of 2-bit length tags (tag t means
// the gap occupies t+1 little-endian bytes), then the payload bytes.
// The last len(row)-1 mod 8 gaps are a scalar varint tail. Sorted rows
// make every gap non-negative, so gaps need no sign bit; only the
// first delta, which may point anywhere relative to v, pays for
// zigzag.
//
// Group structure is what makes the decode hot path branch-light:
// RowInto reconstructs eight neighbors per control word through an
// unrolled loop of table-driven masked 4-byte loads — no per-byte
// continuation-bit branches — and FindFirstIn advances group-at-a-time
// (the control word gives the payload size up front) instead of
// gap-at-a-time. The price is a fixed-width over-read: payload loads
// always read 4 bytes and mask, so every byte stream carries codecSlack
// zero bytes past its last encoded byte and decoders receive suffix
// slices (Bytes[BOffs[v]:], not exact segments).
//
// The encoder writes through an unchecked range scatter whose byte
// offsets come from a prefix sum of per-row sizes; `rpblint -certify`
// proves those boundaries monotone and in-bounds (the size helpers
// below are part of that proof: the interprocedural non-negativity
// summary shows every pre-scan size is >= 0, see docs/LINT.md). The
// decoder trusts the same offsets — CGraph.Validate is the checked-mode
// pass that re-verifies every row decodes exactly to its boundary.
//
// The PR-7 scalar varint-gap codec this replaced is gone; its measured
// 2.43x decode deficit is kept as history in docs/GRAPH.md.

const (
	// gvGroup is the number of gaps per group-varint group.
	gvGroup = 8
	// gvCtrl is the control-word size: 2 bits per gap, 8 gaps = 16 bits.
	gvCtrl = 2
	// codecSlack is how many readable bytes a decoder may touch past a
	// row's last encoded byte: group payload loads are unconditional
	// 4-byte little-endian reads masked to the tagged length, so the
	// final 1-byte gap of a stream may pull in up to 3 bytes beyond it.
	// Every encoded byte stream ends with codecSlack zero bytes (zero also
	// terminates any varint a corrupt stream walks into the pad), and
	// every buffer handed to decodeRow must include them.
	codecSlack = 4
)

// gvLens[c][j] is the byte length (1-4) of the j-th gap under control
// byte c; gvOffs[c][j] is that gap's byte offset within the control
// byte's payload run (the prefix sum of gvLens[c][:j]); gvShift[c][j]
// is that offset in bits (8*gvOffs, pre-multiplied for the
// register-resident fast path below); gvMasks[c][j] is the lane's
// truncation mask resolved per control byte (folding the gvLens ->
// gvMask double lookup into one load); gvTot[c] is the full payload
// size — the table-driven group skip.
//
// The tables serve two decode strategies. When a control byte's whole
// payload fits in 8 bytes (gvTot <= 8 — the dominant case for
// small-gap graph rows), decodeRow loads the payload once into a
// 64-bit register and extracts all four lanes by shift+mask: one
// bounds-checked memory load per half-group instead of four. The
// general path falls back to per-lane masked 4-byte loads whose
// addresses come from gvOffs — independent of each other, so they
// issue in parallel and the only serial dependence left is the gap
// prefix sum itself.
var (
	gvLens  [256][4]uint8
	gvOffs  [256][4]uint8
	gvShift [256][4]uint8
	gvMasks [256][4]uint32
	gvTot   [256]uint8
)

func init() {
	for c := 0; c < 256; c++ {
		var tot uint8
		for j := 0; j < 4; j++ {
			l := uint8(c>>(2*j))&3 + 1
			gvLens[c][j] = l
			gvOffs[c][j] = tot
			gvShift[c][j] = 8 * tot
			gvMasks[c][j] = gvMask[l]
			tot += l
		}
		gvTot[c] = tot
	}
}

// gvMask truncates a 4-byte load to a tagged length.
var gvMask = [5]uint32{0, 0xff, 0xffff, 0xffffff, 0xffffffff}

// load32 reads 4 little-endian bytes at buf[k:]. The slice header is
// the compiler's load-combine idiom, so this is one unaligned load
// plus the callers' mask.
func load32(buf []byte, k int) uint32 {
	b := buf[k : k+4]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// load64 reads 8 little-endian bytes at buf[k:] — the whole payload of
// a gvTot<=8 control byte in one load. Safe anywhere inside a group:
// the shorter a half-group's payload, the more bytes follow it (the
// other half's payload is at least 4 bytes, and the stream's codecSlack
// pad covers a final all-ones half exactly).
func load64(buf []byte, k int) uint64 {
	b := buf[k : k+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// gvByteLen returns the encoded payload size of one gap: 1-4
// little-endian bytes. Written as constant returns so the certifier's
// non-negativity summary (docs/LINT.md) proves the result >= 0 for all
// inputs.
func gvByteLen(u uint32) int {
	switch {
	case u < 1<<8:
		return 1
	case u < 1<<16:
		return 2
	case u < 1<<24:
		return 3
	}
	return 4
}

// zigzag maps a signed delta to an unsigned varint payload:
// 0,-1,1,-2,2... -> 0,1,2,3,4...
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintLen returns the encoded size of u in bytes (LEB128: 7 payload
// bits per byte, high bit marks continuation).
func varintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// putVarint encodes u at dst[k:] and returns the next write position.
// The caller guarantees varintLen(u) bytes of room.
func putVarint(dst []byte, k int, u uint64) int {
	for u >= 0x80 {
		dst[k] = byte(u) | 0x80
		u >>= 7
		k++
	}
	dst[k] = byte(u)
	return k + 1
}

// getVarint decodes a varint at buf[k:] and returns the value and the
// next read position.
func getVarint(buf []byte, k int) (uint64, int) {
	var u uint64
	var shift uint
	for {
		b := buf[k]
		k++
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, k
		}
		shift += 7
	}
}

// getVarintBounded is getVarint with an explicit end check, for
// checked-mode validation of untrusted streams: ok is false when the
// varint runs past len(buf).
func getVarintBounded(buf []byte, k int) (uint64, int, bool) {
	var u uint64
	var shift uint
	for {
		if k >= len(buf) {
			return 0, k, false
		}
		b := buf[k]
		k++
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, k, true
		}
		shift += 7
	}
}

// encRowSize returns the encoded byte size of vertex v's sorted
// neighbor row: first-delta varint, then gvCtrl+payload per full
// 8-gap group, then the scalar varint tail. It is called once per
// vertex in the encoder's size pass; the certifier's non-negativity
// summary proves its result >= 0 (every term is a constant or an
// nn-summarized helper), which makes the subsequent prefix sum of
// sizes monotone.
func encRowSize(v int32, row []int32) int {
	if len(row) == 0 {
		return 0
	}
	sz := varintLen(zigzag(int64(row[0]) - int64(v)))
	prev := row[0]
	i := 1
	for ; i+gvGroup <= len(row); i += gvGroup {
		sz += gvCtrl
		for j := 0; j < gvGroup; j++ {
			u := row[i+j]
			sz += gvByteLen(uint32(u - prev))
			prev = u
		}
	}
	for ; i < len(row); i++ {
		sz += varintLen(uint64(uint32(row[i] - prev)))
		prev = row[i]
	}
	return sz
}

// encodeRow encodes vertex v's sorted neighbor row into dst, which must
// be exactly encRowSize(v, row) bytes.
func encodeRow(v int32, row []int32, dst []byte) {
	if len(row) == 0 {
		return
	}
	k := putVarint(dst, 0, zigzag(int64(row[0])-int64(v)))
	prev := row[0]
	i := 1
	for ; i+gvGroup <= len(row); i += gvGroup {
		ck := k // control word, filled after the tags are known
		k += gvCtrl
		var ctrl uint32
		for j := 0; j < gvGroup; j++ {
			u := row[i+j]
			g := uint32(u - prev)
			prev = u
			l := gvByteLen(g)
			ctrl |= uint32(l-1) << (2 * j)
			for b := 0; b < l; b++ {
				dst[k] = byte(g >> (8 * b))
				k++
			}
		}
		dst[ck] = byte(ctrl)
		dst[ck+1] = byte(ctrl >> 8)
	}
	for ; i < len(row); i++ {
		k = putVarint(dst, k, uint64(uint32(row[i]-prev)))
		prev = row[i]
	}
	_ = k
}

// decodeGroup is the one group stanza every row consumer shares —
// decodeRow stores its eight neighbors straight into the caller's row,
// CountIn and FindFirstIn into a stack array they then probe. It reads
// the control word at buf[k], adds the group's eight gaps to the running
// neighbor u one by one, stores the running values in o, and returns
// the position after the payload and the last neighbor. Three paths,
// cheapest first: a zero control word (eight 1-byte gaps) is one 8-byte
// load cut at constant shifts, no table touched; a half-group whose
// payload fits 8 bytes (gvTot <= 8) is one load cut by the gvShift and
// gvMasks rows of its control byte; anything wider falls back to four
// masked 4-byte loads at gvOffs.
func decodeGroup(buf []byte, k int, u int32, o *[gvGroup]int32) (int, int32) {
	ctrl := [2]uint8{buf[k], buf[k+1]}
	k += gvCtrl
	if ctrl[0]|ctrl[1] == 0 {
		s := load64(buf, k)
		u += int32(uint8(s))
		o[0] = u
		u += int32(uint8(s >> 8))
		o[1] = u
		u += int32(uint8(s >> 16))
		o[2] = u
		u += int32(uint8(s >> 24))
		o[3] = u
		u += int32(uint8(s >> 32))
		o[4] = u
		u += int32(uint8(s >> 40))
		o[5] = u
		u += int32(uint8(s >> 48))
		o[6] = u
		u += int32(uint8(s >> 56))
		o[7] = u
		return k + gvGroup, u
	}
	for half, c := range ctrl {
		o := (*[4]int32)(o[4*half:])
		m, t := &gvMasks[c], int(gvTot[c])
		if t <= 8 {
			s, h := load64(buf, k), &gvShift[c]
			u += int32(uint32(s) & m[0])
			o[0] = u
			u += int32(uint32(s>>h[1]) & m[1])
			o[1] = u
			u += int32(uint32(s>>h[2]) & m[2])
			o[2] = u
			u += int32(uint32(s>>h[3]) & m[3])
			o[3] = u
		} else {
			f := &gvOffs[c]
			u += int32(load32(buf, k) & m[0])
			o[0] = u
			u += int32(load32(buf, k+int(f[1])) & m[1])
			o[1] = u
			u += int32(load32(buf, k+int(f[2])) & m[2])
			o[2] = u
			u += int32(load32(buf, k+int(f[3])) & m[3])
			o[3] = u
		}
		k += t
	}
	return k, u
}

// decodeRow decodes vertex v's row from buf into out, which must have
// room for deg entries, and returns out[:deg]. buf is the row's byte
// stream starting at its first byte (Bytes[BOffs[v]:]) and must extend
// at least codecSlack bytes past the row's encoding — the stream's pad, or
// the caller's own slack for standalone buffers.
func decodeRow(v int32, buf []byte, deg int32, out []int32) []int32 {
	if deg == 0 {
		return out[:0]
	}
	first, k := getVarint(buf, 0)
	u := int32(int64(v) + unzigzag(first))
	out[0] = u
	i := int32(1)
	for ; i+gvGroup <= deg; i += gvGroup {
		k, u = decodeGroup(buf, k, u, (*[gvGroup]int32)(out[i:i+gvGroup]))
	}
	for ; i < deg; i++ {
		gap, k2 := getVarint(buf, k)
		k = k2
		u += int32(gap)
		out[i] = u
	}
	return out[:deg]
}
