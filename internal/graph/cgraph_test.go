package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// encodeDecodeRow round-trips one sorted row through the codec.
func encodeDecodeRow(t *testing.T, v int32, row []int32) {
	t.Helper()
	sz := encRowSize(v, row)
	buf := make([]byte, sz+codecSlack) // decodeRow needs the slack pad past the encoding
	encodeRow(v, row, buf[:sz])
	out := make([]int32, len(row))
	got := decodeRow(v, buf, int32(len(row)), out)
	if !slices.Equal(got, row) {
		t.Fatalf("row of %d: decode = %v, want %v", v, got, row)
	}
}

func TestCodecRoundTripBasics(t *testing.T) {
	encodeDecodeRow(t, 5, nil)                      // empty row
	encodeDecodeRow(t, 5, []int32{5})               // self-loop: delta 0
	encodeDecodeRow(t, 0, []int32{0, 0, 0})         // repeated self-loops: zero gaps
	encodeDecodeRow(t, 100, []int32{0})             // negative first delta
	encodeDecodeRow(t, 0, []int32{1 << 30})         // huge positive first delta
	encodeDecodeRow(t, 1<<30, []int32{0, 1 << 30})  // swing down then up
	encodeDecodeRow(t, 3, []int32{1, 2, 3, 4, 127}) // tiny gaps
}

func TestCodecRoundTripAdversarialGaps(t *testing.T) {
	// Rows engineered to straddle every varint width boundary: gaps of
	// exactly 2^7k-1 and 2^7k around each continuation threshold, plus
	// max-id endpoints.
	const maxID = int32(1<<31 - 1)
	rows := [][]int32{
		{0, 127, 128, 255, 256, 16383, 16384, 16385},
		{maxID - 3, maxID - 1, maxID},
		{0, maxID},
		{1, 1, 128, 128, 16384, 16384}, // duplicate neighbors: zero gaps at width boundaries
	}
	for i, row := range rows {
		for _, v := range []int32{0, 1, maxID / 2, maxID} {
			t.Run(fmt.Sprintf("row%d_v%d", i, v), func(t *testing.T) {
				encodeDecodeRow(t, v, row)
			})
		}
	}
}

func TestCodecRoundTripRandomDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(0xc0dec))
	// Three gap regimes: dense (gaps ~ geometric(1/2)), sparse (gaps up
	// to 2^20), and mixed power-law-ish.
	gapFor := []func() int32{
		func() int32 { return int32(r.Intn(3)) },
		func() int32 { return int32(r.Intn(1 << 20)) },
		func() int32 { return int32(1) << r.Intn(21) },
	}
	for regime, gap := range gapFor {
		for trial := 0; trial < 50; trial++ {
			deg := r.Intn(40)
			row := make([]int32, deg)
			u := int32(r.Intn(1000))
			for i := range row {
				row[i] = u
				u += gap()
			}
			v := int32(r.Intn(2000))
			sz := encRowSize(v, row)
			buf := make([]byte, sz+codecSlack)
			encodeRow(v, row, buf[:sz])
			out := make([]int32, deg)
			if got := decodeRow(v, buf, int32(deg), out); !slices.Equal(got, row) {
				t.Fatalf("regime %d trial %d: decode mismatch", regime, trial)
			}
		}
	}
}

func TestVarintWidths(t *testing.T) {
	for _, tc := range []struct {
		u    uint64
		want int
	}{{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {1 << 62, 9}, {^uint64(0), 10}} {
		if got := varintLen(tc.u); got != tc.want {
			t.Errorf("varintLen(%d) = %d, want %d", tc.u, got, tc.want)
		}
		buf := make([]byte, tc.want)
		if k := putVarint(buf, 0, tc.u); k != tc.want {
			t.Errorf("putVarint(%d) wrote %d bytes, want %d", tc.u, k, tc.want)
		}
		if got, k := getVarint(buf, 0); got != tc.u || k != tc.want {
			t.Errorf("getVarint = (%d, %d), want (%d, %d)", got, k, tc.u, tc.want)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, x := range []int64{0, -1, 1, -2, 2, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(x)); got != x {
			t.Errorf("unzigzag(zigzag(%d)) = %d", x, got)
		}
	}
	// Small magnitudes stay small: the property the first-delta encoding
	// relies on.
	if zigzag(-1) != 1 || zigzag(1) != 2 || zigzag(0) != 0 {
		t.Errorf("zigzag ordering broken: %d %d %d", zigzag(0), zigzag(-1), zigzag(1))
	}
}

// compressedInput builds plain sorted and compressed forms of one
// generated input and cross-checks them.
func checkCompressedEquivalence(t *testing.T, g *Graph, c *CGraph) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", c.NumVertices(), c.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	buf := make([]int32, c.MaxDegree())
	for v := int32(0); v < g.N; v++ {
		if got, want := c.Degree(v), g.Degree(v); got != want {
			t.Fatalf("degree(%d) = %d, want %d", v, got, want)
		}
		if got, want := c.RowInto(v, buf), g.Neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("row(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestCompressMatchesPlainOnInputs(t *testing.T) {
	for _, input := range GraphInputs {
		t.Run(input, func(t *testing.T) {
			edges, n := edgesFor(nil, input, ScaleTest, 0xce)
			sym := Symmetrize(nil, edges)
			var b, cb Builder
			g := b.BuildSorted(nil, n, sym)
			c := cb.Compress(nil, cb.BuildSorted(nil, n, sym))
			checkCompressedEquivalence(t, g, c)
		})
	}
}

func TestCompressWeightedAlignsWeights(t *testing.T) {
	edges, n := edgesFor(nil, InputRMAT, ScaleTest, 0xce1)
	sym := Symmetrize(nil, edges)
	wedges := AddWeights(nil, sym, 1<<16, 0xce2)
	var b, cb Builder
	wg := b.BuildWSorted(nil, n, wedges)
	cw := cb.CompressW(nil, cb.BuildWSorted(nil, n, wedges))
	checkCompressedEquivalence(t, &wg.Graph, &cw.CGraph)
	buf := make([]int32, cw.MaxDegree())
	for v := int32(0); v < n; v++ {
		adj, wgt := wg.WNeighbors(v)
		cadj, cwgt := cw.WRow(v, buf)
		if !slices.Equal(adj, cadj) || !slices.Equal(wgt, cwgt) {
			t.Fatalf("weighted row(%d) mismatch", v)
		}
	}
}

func TestFindFirstInMatchesScan(t *testing.T) {
	edges, n := edgesFor(nil, InputRMAT, ScaleTest, 0xff1)
	sym := Symmetrize(nil, edges)
	var b, cb Builder
	g := b.BuildSorted(nil, n, sym)
	c := cb.Compress(nil, cb.BuildSorted(nil, n, sym))
	words := (int(n) + 63) / 64
	r := rand.New(rand.NewSource(0xff2))
	for trial := 0; trial < 20; trial++ {
		bm := make([]uint64, words)
		for i := range bm {
			bm[i] = r.Uint64() & r.Uint64() & r.Uint64() // sparse-ish
		}
		for v := int32(0); v < n; v++ {
			want := int32(-1)
			for _, u := range g.Neighbors(v) {
				if bm[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
					want = u
					break
				}
			}
			if got := g.FindFirstIn(v, bm); got != want {
				t.Fatalf("plain FindFirstIn(%d) = %d, want %d", v, got, want)
			}
			if got := c.FindFirstIn(v, bm); got != want {
				t.Fatalf("compressed FindFirstIn(%d) = %d, want %d", v, got, want)
			}
		}
	}
}

// TestFindFirstInGroupBoundaries is the group-skipping property test:
// rows whose lengths straddle every group boundary (full groups, full
// groups plus a scalar tail, tail-only), with gap widths cycling
// through 1-, 2-, and 3-byte payloads, probed at every neighbor
// position and at no position, against the plain linear scan.
func TestFindFirstInGroupBoundaries(t *testing.T) {
	gaps := []int32{1, 300, 70_000, 3}
	for _, deg := range []int{1, 2, 7, 8, 9, 10, 15, 16, 17, 24, 25, 33} {
		row := make([]int32, deg)
		u := int32(5)
		for i := range row {
			row[i] = u
			u += gaps[i%len(gaps)]
		}
		n := u + 1
		edges := make([]Edge, deg)
		for i, nb := range row {
			edges[i] = Edge{From: 0, To: nb}
		}
		var b, cb Builder
		g := b.BuildSorted(nil, n, edges)
		c := cb.Compress(nil, cb.BuildSorted(nil, n, edges))
		words := (int(n) + 63) / 64
		bm := make([]uint64, words)
		probe := func() {
			want := g.FindFirstIn(0, bm)
			if got := c.FindFirstIn(0, bm); got != want {
				t.Fatalf("deg %d: compressed FindFirstIn = %d, want %d", deg, got, want)
			}
		}
		probe() // empty bitmap: both must miss
		for j := deg - 1; j >= 0; j-- {
			// Set positions back to front, so the expected hit walks
			// through every group and tail position.
			bm[uint32(row[j])>>6] |= 1 << (uint32(row[j]) & 63)
			probe()
		}
	}
}

// TestCompressTransposeSeparateStreams pins that a Builder's two
// compressed slots own separate streams: after Compress then
// CompressTranspose, neither aliases the other's bytes, both validate
// and decode to their plain rows, the forward stream is exactly a solo
// BuildC's, and each FootprintBytes charges only its own rows.
func TestCompressTransposeSeparateStreams(t *testing.T) {
	edges, n := edgesFor(nil, InputRMAT, ScaleTest, 0x9e)
	sym := Symmetrize(nil, edges)
	var b, tb, solo Builder
	g := b.BuildSorted(nil, n, sym)
	cg := b.Compress(nil, g)
	ref := solo.Compress(nil, solo.BuildSorted(nil, n, sym)) // forward-only compress for comparison
	tg := tb.Transpose(nil, g)
	SortAdjacency(nil, tg)
	ctg := b.CompressTranspose(nil, tg)

	if &cg.Bytes[0] == &ctg.Bytes[0] {
		t.Fatal("forward and transpose share a byte stream")
	}
	if err := cg.Validate(); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if err := ctg.Validate(); err != nil {
		t.Fatalf("transpose: %v", err)
	}
	checkCompressedEquivalence(t, g, cg)
	checkCompressedEquivalence(t, tg, ctg)
	if !bytes.Equal(cg.Bytes, ref.Bytes) || !slices.Equal(cg.BOffs, ref.BOffs) {
		t.Fatal("forward stream differs from a solo BuildC")
	}
	offsBytes := int64(n+1)*4 + int64(n+1)*8
	for name, c := range map[string]*CGraph{"forward": cg, "transpose": ctg} {
		if got, want := c.FootprintBytes(), offsBytes+int64(len(c.Bytes)-codecSlack); got != want {
			t.Fatalf("%s footprint %d, want %d", name, got, want)
		}
	}
}

func TestShardsCoverAndAlign(t *testing.T) {
	edges, n := edgesFor(nil, InputLink, ScaleTest, 0x5a)
	sym := Symmetrize(nil, edges)
	var cb Builder
	c := cb.Compress(nil, cb.BuildSorted(nil, n, sym))
	shards := c.Shards
	if len(shards) == 0 {
		t.Fatal("no shards")
	}
	if shards[0].Lo != 0 || shards[len(shards)-1].Hi != n {
		t.Fatalf("shards do not cover [0, %d): %v", n, shards)
	}
	for i, s := range shards {
		if s.Lo >= s.Hi {
			t.Fatalf("empty shard %d: %+v", i, s)
		}
		if s.Lo%64 != 0 {
			t.Fatalf("shard %d starts at %d, not 64-aligned", i, s.Lo)
		}
		if i > 0 && shards[i-1].Hi != s.Lo {
			t.Fatalf("gap between shard %d and %d", i-1, i)
		}
	}
	// A generic adjacency gets the same partition.
	if got := ShardsOf(c, nil); !slices.Equal(got, shards) {
		t.Fatalf("ShardsOf disagrees with stored shards")
	}
}

// TestBuildDeterministicAcrossWorkers is the determinism pin: the
// sorted CSR arrays and the compressed byte stream must be
// byte-identical whatever the worker count, protecting the
// golden-pinned census and benchmarks from nondeterministic rebuilds.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	type snap struct {
		offs, adj []int32
		boffs     []int64
		tboffs    []int64
		enc, tenc []byte
	}
	build := func(workers int) snap {
		pool := core.NewPool(workers)
		defer pool.Close()
		var s snap
		pool.Do(func(w *core.Worker) {
			edges, n := edgesFor(w, InputRMAT, ScaleTest, 0xdef)
			sym := Symmetrize(w, edges)
			var b, tb Builder
			c := b.Compress(w, b.BuildSorted(w, n, sym))
			tg := tb.Transpose(w, &b.g)
			SortAdjacency(w, tg)
			ct := b.CompressTranspose(w, tg)
			s.offs = slices.Clone(c.EOffs)
			s.boffs = slices.Clone(c.BOffs)
			s.tboffs = slices.Clone(ct.BOffs)
			s.enc = slices.Clone(c.Bytes)
			s.tenc = slices.Clone(ct.Bytes)
			s.adj = slices.Clone(b.g.Adj)
		})
		return s
	}
	base := build(1)
	for _, workers := range []int{2, 4} {
		got := build(workers)
		if !slices.Equal(base.offs, got.offs) || !slices.Equal(base.adj, got.adj) {
			t.Fatalf("sorted CSR differs between 1 and %d workers", workers)
		}
		if !slices.Equal(base.boffs, got.boffs) || !bytes.Equal(base.enc, got.enc) {
			t.Fatalf("CGraph bytes differ between 1 and %d workers", workers)
		}
		if !slices.Equal(base.tboffs, got.tboffs) || !bytes.Equal(base.tenc, got.tenc) {
			t.Fatalf("transpose bytes differ between 1 and %d workers", workers)
		}
	}
}

func TestSortAdjacencyPermutationProperty(t *testing.T) {
	edges, n := edgesFor(nil, InputRMAT, ScaleTest, 0xabc)
	sym := Symmetrize(nil, edges)
	var a, s Builder
	plain := a.Build(nil, n, sym)
	sorted := s.BuildSorted(nil, n, sym)
	if !slices.Equal(plain.Offs[:n+1], sorted.Offs[:n+1]) {
		t.Fatal("sorting changed row extents")
	}
	for v := int32(0); v < n; v++ {
		row := sorted.Neighbors(v)
		if !slices.IsSorted(row) {
			t.Fatalf("row %d not sorted: %v", v, row)
		}
		unsorted := slices.Clone(plain.Neighbors(v))
		slices.Sort(unsorted)
		if !slices.Equal(unsorted, row) {
			t.Fatalf("row %d is not a permutation of the unsorted row", v)
		}
	}
}

func TestSortAdjacencyWKeepsPairs(t *testing.T) {
	edges, n := edgesFor(nil, InputRMAT, ScaleTest, 0xabd)
	sym := Symmetrize(nil, edges)
	wedges := AddWeights(nil, sym, 1<<16, 0xabe)
	var a, s Builder
	plain := a.BuildW(nil, n, wedges)
	sorted := s.BuildWSorted(nil, n, wedges)
	pairKey := func(u int32, w uint32) uint64 { return uint64(uint32(u))<<32 | uint64(w) }
	for v := int32(0); v < n; v++ {
		adj, wgt := sorted.WNeighbors(v)
		if !slices.IsSorted(adj) {
			t.Fatalf("row %d not sorted", v)
		}
		var got, want []uint64
		for i, u := range adj {
			got = append(got, pairKey(u, wgt[i]))
		}
		padj, pwgt := plain.WNeighbors(v)
		for i, u := range padj {
			want = append(want, pairKey(u, pwgt[i]))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("row %d: weight pairing broken by the co-sort", v)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	edges, n := edgesFor(nil, InputRMAT, ScaleTest, 0xbad)
	sym := Symmetrize(nil, edges)
	var cb Builder
	c := cb.Compress(nil, cb.BuildSorted(nil, n, sym))
	if err := c.Validate(); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	// Truncate the stream: the final row must not decode to its boundary.
	trunc := *c
	trunc.Bytes = slices.Clone(c.Bytes)
	trunc.BOffs = slices.Clone(c.BOffs)
	trunc.BOffs[n]++
	if err := trunc.Validate(); err == nil {
		t.Fatal("inflated byte-offset total passed validation")
	}
	// A stream that does not start at byte 0.
	shifted := *c
	shifted.BOffs = slices.Clone(c.BOffs)
	for v := range shifted.BOffs {
		shifted.BOffs[v]++
	}
	shifted.Bytes = append([]byte{0}, c.Bytes...)
	if err := shifted.Validate(); err == nil {
		t.Fatal("stream starting past byte 0 passed validation")
	}
	// Bytes past the pad, zero or not.
	long := *c
	long.Bytes = append(slices.Clone(c.Bytes), 0)
	if err := long.Validate(); err == nil {
		t.Fatal("bytes past the slack pad passed validation")
	}
	// A nonzero pad byte with Bytes one byte longer than the stream.
	dirty := *c
	dirty.Bytes = append(slices.Clone(c.Bytes), 0)
	dirty.Bytes[c.BOffs[n]] = 1
	if err := dirty.Validate(); err == nil {
		t.Fatal("nonzero slack byte passed validation")
	}
	// Corrupt a gap into an out-of-range id: pick the last byte of a
	// nonempty row and blow up its payload.
	var v int32
	for v = 0; v < n && c.Degree(v) == 0; v++ {
	}
	corrupt := *c
	corrupt.Bytes = slices.Clone(c.Bytes)
	corrupt.BOffs = c.BOffs
	// Rewrite row v's first varint to a huge delta that exceeds N.
	seg := corrupt.Bytes[corrupt.BOffs[v]:corrupt.BOffs[v+1]]
	if len(seg) >= 5 {
		for i := 0; i < 4; i++ {
			seg[i] = 0xff
		}
		seg[4] = 0x0f
		if err := corrupt.Validate(); err == nil {
			t.Fatal("out-of-range neighbor passed validation")
		}
	}
}

func TestBuilderValidatesEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []Edge
	}{
		{"to-too-big", []Edge{{0, 1}, {1, 9}}},
		{"from-negative", []Edge{{-2, 1}}},
		{"from-too-big", []Edge{{4, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic for out-of-range endpoint")
				}
				msg := fmt.Sprint(r)
				if !bytes.Contains([]byte(msg), []byte("endpoint outside")) {
					t.Fatalf("panic does not name the edge: %v", msg)
				}
			}()
			var b Builder
			b.Build(nil, 4, tc.edges)
		})
	}
	// The weighted path validates too.
	defer func() {
		if recover() == nil {
			t.Fatal("BuildW accepted an out-of-range endpoint")
		}
	}()
	var b Builder
	b.BuildW(nil, 4, []WEdge{{From: 0, To: 17, W: 1}})
}

func TestBuilderEdgeOverflowGuard(t *testing.T) {
	old := edgeLimit
	edgeLimit = 4
	defer func() { edgeLimit = old }()
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	var b Builder
	if g := b.Build(nil, 4, edges); g.M() != 4 {
		t.Fatal("limit-sized build failed")
	}
	edges = append(edges, Edge{0, 2})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic past the injected edge limit")
		}
		if !bytes.Contains([]byte(fmt.Sprint(r)), []byte("offsets would overflow")) {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	b.Build(nil, 4, edges)
}
