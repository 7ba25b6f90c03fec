// Beyond-LLC graph benchmarks (`make bench-graph-xl`, docs/GRAPH.md
// "Compressed CSR"). Every BenchmarkXLGraph* runs a graph kernel of the
// suite — hybrid BFS, delta-stepping SSSP, PageRank, triangle counting —
// at ScaleLarge: tens of millions of edges, sized so one traversal
// direction of the plain CSR exceeds last-level cache, instantiated
// over both representations, plain and compressed. Each benchmark
// reports bytes/edge (the representation's adjacency footprint over its
// edge count) and MTEPS (millions of traversed edges per second, |E|
// over the per-round wall clock). This tier is deliberately not a
// workload of the repository benchmark (benchmark/README.md): building
// its inputs takes minutes. CI runs one iteration so the code cannot
// rot; nothing reads the output.
package repro

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
)

// xlData holds one ScaleLarge input in both representations. Building
// it costs minutes at one core, so it is constructed once per process
// and shared by every benchmark that names the same input.
type xlData struct {
	g, tg    *graph.Graph  // plain CSR, sorted rows + its transpose
	cg, ctg  *graph.CGraph // compressed CSR + pool-sharing compressed transpose
	wg       *graph.WGraph
	cw, ctw  *graph.CWGraph // weighted compressed pair, one shared pool
	bfsWant  []uint32       // sequential oracle levels from vertex 0
	ssspWant []uint32       // reference distances from one plain delta-stepping run
	prWant   []float64      // sequential oracle ranks at xlPRIters rounds
}

var (
	xlCache = map[string]*xlData{}
	xlMu    sync.Mutex
)

func xlLoad(b *testing.B, input string) *xlData {
	xlMu.Lock()
	defer xlMu.Unlock()
	if d, ok := xlCache[input]; ok {
		return d
	}
	d := &xlData{}
	pool := core.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	pool.Do(func(w *core.Worker) {
		d.g = graph.LoadUndirectedSorted(w, input, graph.ScaleLarge, 0xbf5)
		var tb graph.Builder
		d.tg = tb.Transpose(w, d.g)
		graph.SortAdjacency(w, d.tg)
		var cb graph.Builder
		d.cg = cb.Compress(w, d.g)
		d.ctg = cb.CompressTranspose(w, d.tg)
		d.wg = graph.LoadUndirectedWeighted(w, input, graph.ScaleLarge, 0x555)
		d.cw, d.ctw = graph.LoadUndirectedWeightedCT(w, input, graph.ScaleLarge, 0x555)
	})
	d.bfsWant = bench.BFSOracle(d.g, 0)
	xlCache[input] = d
	return d
}

// benchXLBFS times the hybrid BFS steady state over one adjacency
// representation and reports bytes/edge and MTEPS alongside ns/op.
func benchXLBFS[A graph.Adjacency](b *testing.B, g, tg A, want []uint32) {
	core.SetMode(core.ModeUnchecked)
	k := bench.NewBFSKernel(g, tg, 0)
	k.SetWant(want)
	pool := core.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.ReportAllocs()
	pool.Do(func(w *core.Worker) {
		runOnce := func() {
			k.Reset()
			k.Run(w)
		}
		runOnce() // warm-up: grow persistent frontiers and scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce()
		}
		b.StopTimer()
	})
	if err := k.Verify(); err != nil {
		b.Fatal(err)
	}
	m := float64(g.NumEdges())
	b.ReportMetric(float64(g.FootprintBytes())/m, "bytes/edge")
	b.ReportMetric(m/1e6/(b.Elapsed().Seconds()/float64(b.N)), "MTEPS")
}

// benchXLSSSP times delta-stepping SSSP. The reference distances come
// from one plain-CSR run (the exact-distance property itself is pinned
// against a sequential Dijkstra at the test scales), so the compressed
// benchmark cross-checks representations without an hours-long
// sequential oracle at ScaleLarge.
func benchXLSSSP[A graph.WAdjacency](b *testing.B, g A, want []uint32) {
	core.SetMode(core.ModeUnchecked)
	k := bench.NewSSSPKernel(g, 0)
	k.SetWant(want)
	threads := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	runOnce := func() {
		k.Reset()
		k.Run(threads)
	}
	runOnce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	b.StopTimer()
	if err := k.Verify(); err != nil {
		b.Fatal(err)
	}
	m := float64(g.NumEdges())
	b.ReportMetric(float64(g.FootprintBytes())/m, "bytes/edge")
	b.ReportMetric(m/1e6/(b.Elapsed().Seconds()/float64(b.N)), "MTEPS")
}

// ssspDistOf computes (once) the shared SSSP reference distances from
// one plain-CSR delta-stepping run.
func ssspDistOf(d *xlData) []uint32 {
	if d.ssspWant == nil {
		core.SetMode(core.ModeUnchecked)
		k := bench.NewSSSPKernel(d.wg, 0)
		k.Run(runtime.GOMAXPROCS(0))
		d.ssspWant = append([]uint32(nil), k.Dist()...)
	}
	return d.ssspWant
}

// benchXLDecode is the decode-bandwidth microbenchmark body: one
// thread streams every row of a representation through its RowInto —
// the single-row decode path the traversal kernels sit on — folding
// the last neighbor into a sink so the decode cannot be elided. It
// reports GB/s over the encoded byte mass (how fast the codec turns
// bytes into neighbors) and edges/ns (decoded edge throughput, the
// metric the decode work is judged on).
func benchXLDecode(b *testing.B, n int32, maxDeg int, streamBytes, edges int64, rowInto func(v int32, buf []int32) []int32) {
	buf := make([]int32, maxDeg)
	var sink int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := int32(0); v < n; v++ {
			row := rowInto(v, buf)
			if len(row) > 0 {
				sink ^= row[len(row)-1]
			}
		}
	}
	b.StopTimer()
	runtime.KeepAlive(sink)
	el := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(streamBytes)/el/1e9, "GB/s")
	b.ReportMetric(float64(edges)/(el*1e9), "edges/ns")
	b.ReportMetric(float64(streamBytes)/float64(edges), "enc-bytes/edge")
}

// Plain CSR: no decode, just streaming the int32 adjacency — the
// memory-bandwidth ceiling the codecs are priced against.
func BenchmarkXLGraphDecodeRmatPlain(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	g := d.g
	benchXLDecode(b, g.N, int(g.MaxDegree()), g.NumEdges()*4, g.NumEdges(), g.RowInto)
}

// Group-varint codec: 8-gap groups behind a 2-byte control word,
// decoded by unrolled masked loads.
func BenchmarkXLGraphDecodeRmatGroup(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	cg := d.cg
	benchXLDecode(b, cg.N, int(cg.MaxDegree()), cg.BOffs[cg.N]-cg.BOffs[0], cg.NumEdges(), cg.RowInto)
}

// Group-varint transpose rows, streamed from the shared pool's second
// half — the bytes the bottom-up BFS and SSSP pull paths traverse.
func BenchmarkXLGraphDecodeRmatGroupTranspose(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	ctg := d.ctg
	benchXLDecode(b, ctg.N, int(ctg.MaxDegree()), ctg.BOffs[ctg.N]-ctg.BOffs[0], ctg.NumEdges(), ctg.RowInto)
}

func BenchmarkXLGraphBFSRmatPlain(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	benchXLBFS(b, d.g, d.tg, d.bfsWant)
}

func BenchmarkXLGraphBFSRmatCompressed(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	benchXLBFS(b, d.cg, d.ctg, d.bfsWant)
}

func BenchmarkXLGraphSSSPRmatPlain(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	benchXLSSSP(b, d.wg, ssspDistOf(d))
}

func BenchmarkXLGraphSSSPRmatCompressed(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	benchXLSSSP(b, d.cw, ssspDistOf(d))
}

// xlPRIters pins the PageRank round count at the XL tier: a fixed
// number of rounds, far from convergence, so plain and compressed runs
// do identical work and the comparison is purely the gather substrate.
const xlPRIters = 5

// prRanksOf computes (once) the bit-exact PageRank reference from the
// sequential oracle over the plain pair.
func prRanksOf(d *xlData) []float64 {
	if d.prWant == nil {
		d.prWant = bench.PROracle(d.g, d.tg, xlPRIters)
	}
	return d.prWant
}

// benchXLPR times the synchronous pull iteration over one adjacency
// pair. MTEPS counts transpose edges gathered per round times rounds.
func benchXLPR[A graph.Adjacency](b *testing.B, g, tg A, want []float64) {
	core.SetMode(core.ModeUnchecked)
	k := bench.NewPRKernel(g, tg)
	k.SetIters(xlPRIters)
	k.SetWant(want)
	pool := core.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.ReportAllocs()
	pool.Do(func(w *core.Worker) {
		runOnce := func() {
			k.Reset()
			k.Run(w)
		}
		runOnce() // warm-up: grow arena scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce()
		}
		b.StopTimer()
	})
	if err := k.Verify(); err != nil {
		b.Fatal(err)
	}
	m := float64(g.NumEdges()) * xlPRIters
	b.ReportMetric(float64(g.FootprintBytes())/float64(g.NumEdges()), "bytes/edge")
	b.ReportMetric(m/1e6/(b.Elapsed().Seconds()/float64(b.N)), "MTEPS")
}

func BenchmarkXLGraphPRRmatPlain(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	benchXLPR(b, d.g, d.tg, prRanksOf(d))
}

func BenchmarkXLGraphPRRmatCompressed(b *testing.B) {
	d := xlLoad(b, graph.InputRMAT)
	benchXLPR(b, d.cg, d.ctg, prRanksOf(d))
}

// xlTC holds the ScaleLarge road degree-ordered DAG in both
// representations plus the oracle count. Separate from xlData because
// triangle counting needs none of the transpose/weighted machinery the
// traversal kernels build.
type xlTC struct {
	dag  *graph.Graph
	cdag *graph.CGraph
	want int64
}

var (
	xlTCCache *xlTC
	xlTCMu    sync.Mutex
)

func xlTCLoad(b *testing.B) *xlTC {
	xlTCMu.Lock()
	defer xlTCMu.Unlock()
	if xlTCCache != nil {
		return xlTCCache
	}
	d := &xlTC{}
	pool := core.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	var g *graph.Graph
	pool.Do(func(w *core.Worker) {
		g = graph.LoadUndirectedSorted(w, graph.InputRoad, graph.ScaleLarge, 0x7c1)
	})
	edges, n := bench.TCOrientEdges(g)
	pool.Do(func(w *core.Worker) {
		var bld graph.Builder
		d.dag = bld.BuildSorted(w, n, edges)
		var cb graph.Builder
		d.cdag = cb.Compress(w, d.dag)
	})
	d.want = bench.TCOracle(d.dag)
	xlTCCache = d
	return d
}

// benchXLTC times the mark-and-CountIn intersection over one DAG
// representation. MTEPS counts DAG edges intersected per count.
func benchXLTC[A graph.Adjacency](b *testing.B, dag A, want int64) {
	core.SetMode(core.ModeUnchecked)
	k := bench.NewTCKernel(dag)
	pool := core.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.ReportAllocs()
	pool.Do(func(w *core.Worker) {
		k.Run(w) // warm-up: grow arena scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Run(w)
		}
		b.StopTimer()
	})
	if k.Count() != want {
		b.Fatalf("counted %d triangles, want %d", k.Count(), want)
	}
	m := float64(dag.NumEdges())
	b.ReportMetric(float64(dag.FootprintBytes())/m, "bytes/edge")
	b.ReportMetric(m/1e6/(b.Elapsed().Seconds()/float64(b.N)), "MTEPS")
}

func BenchmarkXLGraphTCRoadPlain(b *testing.B) {
	d := xlTCLoad(b)
	benchXLTC(b, d.dag, d.want)
}

func BenchmarkXLGraphTCRoadCompressed(b *testing.B) {
	d := xlTCLoad(b)
	benchXLTC(b, d.cdag, d.want)
}
