package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bench"
)

// GraphReport renders the graph-kernel telemetry (docs/GRAPH.md) in two
// blocks. The first is the wall-clock table: every BenchmarkGraph* hot
// path before the batched-queue/direction-optimizing work
// (BENCH_graph_before.json, committed once) side by side with the
// current measurement (BENCH_graph.json, refreshed by `make
// bench-graph`); the speedup column is the acceptance headline (the
// issue gates bfs and sssp at >=1.5x). The second block runs sssp live
// in both queue disciplines and prints the MultiQueue operation
// counters: lock acquisitions per processed vertex must drop by about
// the batch size when the batched driver replaces item-at-a-time
// pops.
func GraphReport(w io.Writer, beforePath, afterPath string, scale bench.Scale, threads int) error {
	if beforePath == "" {
		beforePath = "BENCH_graph_before.json"
	}
	if afterPath == "" {
		afterPath = "BENCH_graph.json"
	}
	before, err := loadBenchJSON(beforePath)
	if err != nil {
		return err
	}
	after, err := loadBenchJSON(afterPath)
	if err != nil {
		return fmt.Errorf("%w (run `make bench-graph` to produce it)", err)
	}
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "Graph-kernel wall clock: %s vs %s\n", beforePath, afterPath)
	fmt.Fprintf(w, "%-28s %14s %14s %9s\n", "benchmark", "ns/op (before)", "ns/op (after)", "speedup")
	for _, name := range names {
		newM := after[name]
		oldM, hasOld := before[name]
		oldNs, speedup := "-", "-"
		if hasOld {
			oldNs = fmt.Sprintf("%.0f", oldM["ns_op"])
			if na := newM["ns_op"]; na > 0 {
				speedup = fmt.Sprintf("%.2fx", oldM["ns_op"]/na)
			}
		}
		fmt.Fprintf(w, "%-28s %14s %14.0f %9s\n", name, oldNs, newM["ns_op"], speedup)
	}
	fmt.Fprintln(w, "(before = single-item MultiQueue kernels, pre-hybrid snapshot)")
	fmt.Fprintln(w)

	if err := xlGraphBlock(w, "BENCH_graph_xl.json"); err != nil {
		return err
	}

	single, batched, err := bench.GraphQueueTelemetry(scale, threads)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MultiQueue discipline, sssp-rmat live at threads=%d:\n", threads)
	fmt.Fprintf(w, "%-22s %14s %14s\n", "", "single-item", "batched")
	row := func(label string, a, b uint64) {
		fmt.Fprintf(w, "%-22s %14d %14d\n", label, a, b)
	}
	row("lock acquisitions", single.LockAcquires, batched.LockAcquires)
	row("push operations", single.PushOps, batched.PushOps)
	row("pop operations", single.PopOps, batched.PopOps)
	row("empty pops", single.EmptyPops, batched.EmptyPops)
	row("pushed items", single.PushedItems, batched.PushedItems)
	row("popped items", single.PoppedItems, batched.PoppedItems)
	fmt.Fprintf(w, "%-22s %14.3f %14.3f\n", "locks per item", single.LocksPerItem(), batched.LocksPerItem())
	if b := batched.LocksPerItem(); b > 0 {
		fmt.Fprintf(w, "lock-traffic reduction: %.0fx fewer acquisitions per processed vertex\n",
			single.LocksPerItem()/b)
	}
	wasted := "-"
	if single.PushedItems > 0 {
		wasted = fmt.Sprintf("%+.1f%%", 100*(float64(batched.PushedItems)/float64(single.PushedItems)-1))
	}
	fmt.Fprintf(w, "queue traffic vs single-item discipline: %s pushed items %s\n",
		wasted, "(relaxation waste the batching trades for lock amortization)")
	return nil
}

// xlGraphBlock renders the beyond-LLC table from BENCH_graph_xl.json
// (`make bench-graph-xl`): every BenchmarkXLGraph* with its bytes/edge
// and edges/sec columns, then the compressed-vs-plain speedup and byte
// ratio per kernel pair — the compressed-CSR acceptance numbers
// (docs/GRAPH.md "Compressed CSR"). A missing export is not an error:
// the XL tier takes minutes to build, so the block just says how to
// produce it.
func xlGraphBlock(w io.Writer, path string) error {
	xl, err := loadBenchJSON(path)
	if err != nil {
		fmt.Fprintf(w, "Beyond-LLC tier: no %s (run `make bench-graph-xl` to produce it)\n\n", path)
		return nil
	}
	names := make([]string, 0, len(xl))
	for name := range xl {
		if strings.HasPrefix(name, "BenchmarkXLGraphDecode") {
			continue // the decode family gets its own table below
		}
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "Beyond-LLC graph kernels (ScaleLarge): %s\n", path)
	fmt.Fprintf(w, "%-36s %14s %12s %12s\n", "benchmark", "ns/op", "bytes/edge", "edges/sec")
	for _, name := range names {
		m := xl[name]
		eps := "-"
		if mteps, ok := m["MTEPS"]; ok {
			eps = fmt.Sprintf("%.1fM", mteps)
		}
		fmt.Fprintf(w, "%-36s %14.0f %12.2f %12s\n", name, m["ns_op"], m["bytes_edge"], eps)
	}
	for _, pair := range []struct{ kernel, input string }{
		{"BFS", "Rmat"}, {"SSSP", "Rmat"}, {"PR", "Rmat"}, {"TC", "Road"},
	} {
		plain, okP := xl["BenchmarkXLGraph"+pair.kernel+pair.input+"Plain"]
		comp, okC := xl["BenchmarkXLGraph"+pair.kernel+pair.input+"Compressed"]
		if !okP || !okC || comp["ns_op"] <= 0 || plain["bytes_edge"] <= 0 {
			continue
		}
		fmt.Fprintf(w, "%s %s: compressed %.2fx speedup at %.2fx bytes/edge vs plain\n",
			pair.kernel, strings.ToLower(pair.input),
			plain["ns_op"]/comp["ns_op"], comp["bytes_edge"]/plain["bytes_edge"])
	}
	xlDecodeBlock(w, xl)
	fmt.Fprintln(w)
	return nil
}

// xlDecodeBlock renders the decode-bandwidth table from the
// BenchmarkXLGraphDecode* family: single-thread whole-graph row
// streaming per representation (plain int32 CSR, group-varint forward,
// group-varint transpose from the shared pool's second half).
func xlDecodeBlock(w io.Writer, xl map[string]map[string]float64) {
	rows := []struct{ suffix, label string }{
		{"Plain", "plain CSR (no decode)"},
		{"Group", "group-varint forward"},
		{"GroupTranspose", "group-varint transpose"},
	}
	header := false
	for _, r := range rows {
		m, ok := xl["BenchmarkXLGraphDecodeRmat"+r.suffix]
		if !ok {
			continue
		}
		if !header {
			fmt.Fprintf(w, "Row-decode bandwidth, rmat (one thread, whole-graph stream):\n")
			fmt.Fprintf(w, "%-36s %10s %12s %12s\n", "representation", "GB/s", "edges/ns", "bytes/edge")
			header = true
		}
		fmt.Fprintf(w, "%-36s %10.2f %12.3f %12.2f\n", r.label, m["GB_s"], m["edges_ns"], m["enc_bytes_edge"])
	}
}
