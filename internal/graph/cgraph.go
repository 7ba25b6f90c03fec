package graph

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
)

// CGraph is the compressed CSR variant (docs/GRAPH.md "Compressed
// CSR"): vertex v's sorted neighbor row lives byte-encoded at
// Bytes[BOffs[v]:BOffs[v+1]] in the group-varint codec of codec.go.
// EOffs keeps the plain edge-rank offsets so Degree stays O(1) and
// weighted variants can index an uncompressed weight array; BOffs is
// int64 so a stream past 2 GiB still indexes. Shards partitions the
// vertices into cache-blocked, 64-aligned ranges of roughly equal byte
// mass so a traversal can hand each worker one contiguous byte segment
// to stream.
//
// Each CGraph owns its stream: its first row starts at byte 0 and
// Bytes ends exactly codecSlack zero bytes past the last row — the
// over-read headroom the group decoder's masked 4-byte loads require
// (codec.go), which is why row decodes slice Bytes[BOffs[v]:] rather
// than the exact segment.
type CGraph struct {
	N      int32
	EOffs  []int32 // length N+1: edge-rank offsets (degrees, weight indexing)
	BOffs  []int64 // length N+1: byte offsets into Bytes, from 0
	Bytes  []byte  // encoded rows + codecSlack zero pad
	MaxDeg int32   // decode scratch sizing
	Shards []Shard // 64-aligned vertex ranges of ~shardTargetBytes each
}

// CWGraph is the weighted compressed graph. Weights stay uncompressed,
// permuted to the sorted row order, so Wgt[EOffs[v]+i] is the weight of
// the i-th decoded neighbor of v.
type CWGraph struct {
	CGraph
	Wgt []uint32
}

// Shard is a half-open vertex range [Lo, Hi) whose encoded rows form
// one contiguous byte segment. Lo and Hi are multiples of 64 (except
// the final Hi = N), so shard-parallel bottom-up traversals keep the
// bitmap word ownership of docs/GRAPH.md.
type Shard struct{ Lo, Hi int32 }

// shardTargetBytes sizes traversal shards: big enough that the
// per-shard task overhead vanishes, small enough that a shard's byte
// segment and its touched vertex state stay cache-resident while a
// worker streams it.
const shardTargetBytes = 256 << 10

// Adjacency is the representation seam the graph kernels traverse
// through: plain *Graph and compressed *CGraph both satisfy it, so BFS
// and SSSP compile once, generically, against either layout.
type Adjacency interface {
	NumVertices() int32
	NumEdges() int64
	Degree(v int32) int32
	// MaxDegree bounds every row length; kernels size per-worker decode
	// scratch with it.
	MaxDegree() int32
	// RowInto returns v's neighbor row. A compressed representation
	// decodes into buf (which must hold MaxDegree entries); the plain
	// one returns its interior slice and ignores buf. Callers must not
	// mutate the result.
	RowInto(v int32, buf []int32) []int32
	// FindFirstIn returns the first neighbor of v whose bit is set in
	// bm, or -1 — the bottom-up BFS probe, kept inside the
	// representation so compressed rows decode incrementally and stop
	// at the first hit.
	FindFirstIn(v int32, bm []uint64) int32
	// CountIn returns how many neighbors of v have their bit set in bm
	// — the sorted-row intersection primitive of triangle counting
	// (mark one row in a bitmap, CountIn each of its neighbors' rows
	// against it). Unlike FindFirstIn it always walks the whole row,
	// but a compressed representation still counts in-place off the
	// group decode loop, never materializing the neighbor slice.
	CountIn(v int32, bm []uint64) int64
	// ByteOffset is v's position in the representation's edge stream,
	// in bytes; ShardsOf balances shard byte mass with it.
	ByteOffset(v int32) int64
	// FootprintBytes is the resident size of the adjacency structure
	// (offset arrays plus edge stream) — the numerator of the
	// benchmark's graph.bytes_per_edge_* metrics.
	FootprintBytes() int64
}

// WAdjacency is the weighted seam: WRow returns the neighbor row (via
// buf, as RowInto) and the parallel weight slice.
type WAdjacency interface {
	Adjacency
	WRow(v int32, buf []int32) ([]int32, []uint32)
}

// --- plain CSR as an Adjacency ---

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int32 { return g.N }

// NumEdges returns the stored directed edge count.
func (g *Graph) NumEdges() int64 { return int64(g.Offs[g.N]) }

// MaxDegree scans for the largest out-degree.
func (g *Graph) MaxDegree() int32 {
	var m int32
	for v := int32(0); v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// RowInto returns v's interior neighbor slice; buf is unused.
func (g *Graph) RowInto(v int32, buf []int32) []int32 {
	return g.Adj[g.Offs[v]:g.Offs[v+1]]
}

// FindFirstIn returns the first neighbor of v set in bm, or -1.
func (g *Graph) FindFirstIn(v int32, bm []uint64) int32 {
	for _, u := range g.Adj[g.Offs[v]:g.Offs[v+1]] {
		if bm[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
			return u
		}
	}
	return -1
}

// CountIn counts the neighbors of v whose bit is set in bm.
func (g *Graph) CountIn(v int32, bm []uint64) int64 {
	var n int64
	for _, u := range g.Adj[g.Offs[v]:g.Offs[v+1]] {
		n += int64(bm[uint32(u)>>6] >> (uint32(u) & 63) & 1)
	}
	return n
}

// ByteOffset is v's byte position in the plain adjacency array.
func (g *Graph) ByteOffset(v int32) int64 { return int64(g.Offs[v]) * 4 }

// FootprintBytes is the plain CSR's resident size: int32 offsets plus
// the int32 adjacency array.
func (g *Graph) FootprintBytes() int64 {
	return int64(g.N+1)*4 + int64(g.Offs[g.N])*4
}

// WRow returns the neighbor and weight slices of v; buf is unused.
func (g *WGraph) WRow(v int32, buf []int32) ([]int32, []uint32) {
	lo, hi := g.Offs[v], g.Offs[v+1]
	return g.Adj[lo:hi], g.Wgt[lo:hi]
}

// --- compressed CSR as an Adjacency ---

// M returns the number of directed edges stored.
func (c *CGraph) M() int64 { return int64(c.EOffs[c.N]) }

// NumVertices returns the vertex count.
func (c *CGraph) NumVertices() int32 { return c.N }

// NumEdges returns the stored directed edge count.
func (c *CGraph) NumEdges() int64 { return int64(c.EOffs[c.N]) }

// Degree returns the out-degree of v.
func (c *CGraph) Degree(v int32) int32 { return c.EOffs[v+1] - c.EOffs[v] }

// MaxDegree returns the largest out-degree, recorded at build time.
func (c *CGraph) MaxDegree() int32 { return c.MaxDeg }

// RowInto decodes v's row into buf and returns buf[:Degree(v)]. The
// suffix slice (not the exact segment) hands the decoder the stream's
// slack pad for its fixed-width group loads.
func (c *CGraph) RowInto(v int32, buf []int32) []int32 {
	return decodeRow(v, c.Bytes[c.BOffs[v]:], c.Degree(v), buf)
}

// FindFirstIn decodes v's row incrementally, returning the first
// neighbor set in bm or -1. The early exit matters: on a dense frontier
// the probe usually hits within the first few gaps, so most of the row
// is never decoded. Reconstruction advances group-at-a-time through
// decodeGroup — the stanza decodeRow and CountIn run — and probes the
// group's eight neighbors in order, so a miss skips to the next control
// word without per-byte continuation branches.
func (c *CGraph) FindFirstIn(v int32, bm []uint64) int32 {
	deg := c.Degree(v)
	if deg == 0 {
		return -1
	}
	buf := c.Bytes[c.BOffs[v]:]
	first, k := getVarint(buf, 0)
	u := int32(int64(v) + unzigzag(first))
	if bm[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
		return u
	}
	i := int32(1)
	var g [gvGroup]int32
	for ; i+gvGroup <= deg; i += gvGroup {
		k, u = decodeGroup(buf, k, u, &g)
		for _, x := range &g {
			if bm[uint32(x)>>6]&(1<<(uint32(x)&63)) != 0 {
				return x
			}
		}
	}
	for ; i < deg; i++ {
		var gap uint64
		gap, k = getVarint(buf, k)
		u += int32(gap)
		if bm[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
			return u
		}
	}
	return -1
}

// CountIn counts the neighbors of v whose bit is set in bm,
// reconstructing the row through decodeGroup like FindFirstIn but
// folding a branch-free membership bit per neighbor instead of exiting
// on the first hit — the whole row always decodes, since an
// intersection needs every element, but only ever eight neighbors at a
// time into a stack array, never the row.
func (c *CGraph) CountIn(v int32, bm []uint64) int64 {
	deg := c.Degree(v)
	if deg == 0 {
		return 0
	}
	buf := c.Bytes[c.BOffs[v]:]
	first, k := getVarint(buf, 0)
	u := int32(int64(v) + unzigzag(first))
	n := int64(bm[uint32(u)>>6] >> (uint32(u) & 63) & 1)
	i := int32(1)
	var g [gvGroup]int32
	for ; i+gvGroup <= deg; i += gvGroup {
		k, u = decodeGroup(buf, k, u, &g)
		for _, x := range &g {
			n += int64(bm[uint32(x)>>6] >> (uint32(x) & 63) & 1)
		}
	}
	for ; i < deg; i++ {
		var gap uint64
		gap, k = getVarint(buf, k)
		u += int32(gap)
		n += int64(bm[uint32(u)>>6] >> (uint32(u) & 63) & 1)
	}
	return n
}

// ByteOffset is v's byte position in the compressed stream.
func (c *CGraph) ByteOffset(v int32) int64 { return c.BOffs[v] }

// FootprintBytes is the compressed CSR's resident size: both offset
// arrays (int32 edge ranks + int64 byte offsets) plus the encoded rows
// — the honest accounting that charges the compression its extra
// offset array.
func (c *CGraph) FootprintBytes() int64 {
	return int64(c.N+1)*4 + int64(c.N+1)*8 + c.BOffs[c.N]
}

// WRow decodes v's neighbors into buf and returns them with the
// uncompressed weight slice, which is already permuted to row order.
func (c *CWGraph) WRow(v int32, buf []int32) ([]int32, []uint32) {
	return c.CGraph.RowInto(v, buf), c.Wgt[c.EOffs[v]:c.EOffs[v+1]]
}

// Validate is the checked-mode decode pass: it re-decodes every row and
// verifies the cursor lands exactly on the next byte offset, neighbors
// are sorted, and every id is in [0, N). Compress runs it in
// ModeChecked; under the encoder's certificate (monotone, in-bounds
// byte offsets from the size scan) the pass is provably redundant and
// ModeUnchecked elides it — the same checked/unchecked discipline as
// core.IndChunks vs IndChunksUnchecked.
func (c *CGraph) Validate() error {
	if len(c.EOffs) != int(c.N)+1 || len(c.BOffs) != int(c.N)+1 {
		return fmt.Errorf("graph: CGraph offset arrays have length %d/%d, want %d", len(c.EOffs), len(c.BOffs), c.N+1)
	}
	if c.BOffs[0] != 0 || c.BOffs[c.N] < 0 || c.BOffs[c.N]+codecSlack != int64(len(c.Bytes)) {
		return fmt.Errorf("graph: CGraph byte extent [%d,%d)+%d slack does not span its %d bytes", c.BOffs[0], c.BOffs[c.N], codecSlack, len(c.Bytes))
	}
	for j := int64(0); j < codecSlack; j++ {
		if c.Bytes[c.BOffs[c.N]+j] != 0 {
			return fmt.Errorf("graph: CGraph slack byte %d past offset %d is %#x, want 0", j, c.BOffs[c.N], c.Bytes[c.BOffs[c.N]+j])
		}
	}
	for v := int32(0); v < c.N; v++ {
		deg := c.Degree(v)
		lo, hi := c.BOffs[v], c.BOffs[v+1]
		if deg < 0 || lo > hi || hi > int64(len(c.Bytes)) {
			return fmt.Errorf("graph: CGraph row %d has invalid extent deg=%d bytes=[%d,%d)", v, deg, lo, hi)
		}
		if deg == 0 {
			if lo != hi {
				return fmt.Errorf("graph: CGraph empty row %d spans %d bytes", v, hi-lo)
			}
			continue
		}
		// The walk below re-derives the group layout with explicit bounds
		// checks and byte-at-a-time payload assembly — unlike decodeRow it
		// never reads past the exact segment, so it can vet a stream whose
		// offsets are themselves suspect.
		seg := c.Bytes[lo:hi]
		first, k, ok := getVarintBounded(seg, 0)
		if !ok {
			return fmt.Errorf("graph: CGraph row %d truncates its first-delta varint", v)
		}
		u := int64(v) + unzigzag(first)
		if u < 0 || u >= int64(c.N) {
			return fmt.Errorf("graph: CGraph row %d decodes out-of-range first neighbor %d", v, u)
		}
		i := int32(1)
		for ; i+gvGroup <= deg; i += gvGroup {
			if k+gvCtrl > len(seg) {
				return fmt.Errorf("graph: CGraph row %d truncates a control word at byte %d", v, k)
			}
			c0, c1 := seg[k], seg[k+1]
			k += gvCtrl
			if k+int(gvTot[c0])+int(gvTot[c1]) > len(seg) {
				return fmt.Errorf("graph: CGraph row %d truncates group payload at byte %d", v, k)
			}
			for j := 0; j < gvGroup; j++ {
				var l int
				if j < 4 {
					l = int(gvLens[c0][j])
				} else {
					l = int(gvLens[c1][j-4])
				}
				var gap uint64
				for bpos := 0; bpos < l; bpos++ {
					gap |= uint64(seg[k]) << (8 * bpos)
					k++
				}
				u += int64(gap)
				if u >= int64(c.N) {
					return fmt.Errorf("graph: CGraph row %d decodes out-of-range neighbor %d", v, u)
				}
			}
		}
		for ; i < deg; i++ {
			gap, k2, ok := getVarintBounded(seg, k)
			if !ok {
				return fmt.Errorf("graph: CGraph row %d exhausts its byte segment at neighbor %d/%d", v, i, deg)
			}
			k = k2
			u += int64(gap)
			if u >= int64(c.N) {
				return fmt.Errorf("graph: CGraph row %d decodes out-of-range neighbor %d", v, u)
			}
		}
		if k != len(seg) {
			return fmt.Errorf("graph: CGraph row %d decodes %d bytes, segment has %d", v, k, len(seg))
		}
	}
	return nil
}

// ShardsOf partitions any adjacency into 64-aligned vertex ranges of
// about shardTargetBytes of edge-stream mass each, appending to dst.
// Every shard boundary is a multiple of 64 so shard-parallel bottom-up
// steps retain whole-word ownership of the frontier bitmaps.
func ShardsOf(a Adjacency, dst []Shard) []Shard {
	n := a.NumVertices()
	dst = dst[:0]
	if n == 0 {
		return dst
	}
	lo := int32(0)
	base := a.ByteOffset(0)
	for v := int32(64); v < n; v += 64 {
		if a.ByteOffset(v)-base >= shardTargetBytes {
			dst = append(dst, Shard{Lo: lo, Hi: v})
			lo, base = v, a.ByteOffset(v)
		}
	}
	return append(dst, Shard{Lo: lo, Hi: n})
}

// maxDegreeOf computes the largest out-degree of a plain graph in
// parallel; Compress records it on the CGraph for decode-scratch
// sizing.
func maxDegreeOf(w *core.Worker, g *Graph) int32 {
	return core.MapReduce(w, int(g.N), int32(0),
		func(v int) int32 { return g.Degree(int32(v)) },
		func(a, b int32) int32 {
			if a > b {
				return a
			}
			return b
		})
}

// Compress encodes a plain CSR graph, whose rows must already be
// sorted (BuildSorted / SortAdjacency), into this Builder's reusable
// compressed buffers. The returned *CGraph aliases g's Offs as EOffs
// and the Builder's buffers; it is valid until the next Compress on
// this Builder.
func (b *Builder) Compress(w *core.Worker, g *Graph) *CGraph {
	compressInto(w, g, &b.cg)
	return &b.cg
}

// CompressW encodes a weighted CSR graph whose rows are sorted with
// weights permuted alongside (SortAdjacencyW). The weight array is not
// compressed: CWGraph.Wgt aliases wg.Wgt, already in sorted row order.
func (b *Builder) CompressW(w *core.Worker, wg *WGraph) *CWGraph {
	compressInto(w, &wg.Graph, &b.cwg.CGraph)
	b.cwg.Wgt = wg.Wgt
	return &b.cwg
}

// CompressTranspose is Compress for the transpose tg of a graph, into
// the Builder's second compressed slot, so a Builder holds both
// directions of one graph at once. Each direction owns its stream; the
// result is valid until the next CompressTranspose on this Builder.
func (b *Builder) CompressTranspose(w *core.Worker, tg *Graph) *CGraph {
	compressInto(w, tg, &b.ctg)
	return &b.ctg
}

// compressInto is the certified two-pass encoder behind every
// compressed build: a size pass fills a zeroed per-vertex byte-size
// array, one inclusive scan turns sizes into byte offsets, and a range
// scatter encodes each row into its byte segment. The scatter's
// boundaries are exactly the scan's output, the monotone byte-offset
// provenance `rpblint -certify` proves (docs/LINT.md), so ModeUnchecked
// runs the scatter — and skips the Validate decode pass — with no
// run-time check. dst's stream starts at byte 0 and ends in its own
// codecSlack zero pad; dst.EOffs aliases g.Offs.
func compressInto(w *core.Worker, g *Graph, dst *CGraph) {
	n := int(g.N)
	adj, offs := g.Adj, g.Offs
	a := arena.Of(w)
	am := a.Mark()
	offsets := arena.Alloc[int64](a, n+1)
	core.ForRange(w, 0, n, 0, func(v int) {
		offsets[v+1] = int64(encRowSize(int32(v), adj[offs[v]:offs[v+1]]))
	})
	total := core.ScanInclusive(w, offsets[1:])
	buf := arena.AllocUninit[byte](a, total)
	encode := func(v int, seg []byte) { encodeRow(int32(v), adj[offs[v]:offs[v+1]], seg) }
	if core.GetMode() == core.ModeChecked {
		if err := core.IndChunks(w, buf, offsets, encode); err != nil {
			panic(fmt.Sprintf("graph: Compress boundary check failed: %v", err))
		}
	} else {
		core.IndChunksUnchecked(w, buf, offsets, encode)
	}
	dst.N = g.N
	dst.EOffs = g.Offs
	dst.BOffs = core.EnsureLen(dst.BOffs, n+1)
	core.CopyInto(w, dst.BOffs, offsets)
	dst.Bytes = core.EnsureLen(dst.Bytes, int(total)+codecSlack)
	core.CopyInto(w, dst.Bytes[:total], buf)
	for j := 0; j < codecSlack; j++ {
		dst.Bytes[int(total)+j] = 0
	}
	a.Release(am)
	dst.MaxDeg = maxDegreeOf(w, g)
	dst.Shards = ShardsOf(dst, dst.Shards)
	if core.GetMode() == core.ModeChecked {
		if err := dst.Validate(); err != nil {
			panic(fmt.Sprintf("graph: Compress produced an invalid stream: %v", err))
		}
	}
}
