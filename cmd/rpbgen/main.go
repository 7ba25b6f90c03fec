// rpbgen generates and summarizes the suite's synthetic inputs: the
// three graphs of Table 2, the Zipfian text, the exponential integer
// sequences and the Kuzmin point sets. It regenerates Table 2 with
// -stats, exports inputs in the original PBBS text formats with -out
// (so the C++ PBBS and Rust RPB can consume them), summarizes existing
// PBBS files with -in, and prints input samples otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pbbsio"
	"repro/internal/report"
	"repro/internal/seqgen"
)

func main() {
	var (
		stats  = flag.Bool("stats", false, "print Table 2 graph statistics")
		what   = flag.String("what", "all", "input family: graphs, text, seq, points, all")
		seed   = flag.Uint64("seed", 1, "generator seed")
		outDir = flag.String("out", "", "write inputs as PBBS-format files into this directory")
		inFile = flag.String("in", "", "summarize an existing PBBS AdjacencyGraph file and exit")
	)
	sc := bench.ScaleSmall
	flag.Var(&sc, "scale", "input scale: test, small, or default")
	flag.Parse()

	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		g, err := pbbsio.ReadAdjacencyGraph(f)
		if err != nil {
			fatal(err)
		}
		fmt.Println(graph.ComputeStats(nil, filepath.Base(*inFile), g))
		return
	}

	if *stats {
		core.Run(func(w *core.Worker) { report.Table2(os.Stdout, w, sc) })
		return
	}

	core.Run(func(w *core.Worker) {
		if *what == "graphs" || *what == "all" {
			for _, name := range graph.GraphInputs {
				g := graph.LoadUndirected(w, name, sc, *seed)
				fmt.Println(graph.ComputeStats(w, name, g))
				if *outDir != "" {
					writeFile(filepath.Join(*outDir, name+".adj"), func(f *os.File) error {
						return pbbsio.WriteAdjacencyGraph(f, g)
					})
					wg := graph.LoadUndirectedWeighted(w, name, sc, *seed)
					writeFile(filepath.Join(*outDir, name+".wadj"), func(f *os.File) error {
						return pbbsio.WriteWeightedAdjacencyGraph(f, wg)
					})
				}
			}
		}
		if *what == "text" || *what == "all" {
			n := bench.TextSize(sc)
			txt := seqgen.Text(w, n, *seed)
			fmt.Printf("text   n=%-9d sample=%q\n", n, string(txt[:min(60, len(txt))]))
			if *outDir != "" {
				writeFile(filepath.Join(*outDir, "wiki.txt"), func(f *os.File) error {
					_, err := f.Write(txt)
					return err
				})
			}
		}
		if *what == "seq" || *what == "all" {
			n := bench.SeqSize(sc)
			xs := seqgen.ExponentialInts(w, n, *seed)
			fmt.Printf("seq    n=%-9d mean=%.0f max=%d\n", n,
				float64(core.Sum(w, toInt64(w, xs)))/float64(n), core.Max(w, xs))
			if *outDir != "" {
				writeFile(filepath.Join(*outDir, "exponential.seq"), func(f *os.File) error {
					return pbbsio.WriteSequenceInt(f, xs)
				})
			}
		}
		if *what == "points" || *what == "all" {
			n := bench.PointCount(sc)
			pts := seqgen.KuzminPoints(w, n, *seed)
			fmt.Printf("points n=%-9d first=(%.3f, %.3f)\n", n, pts[0].X, pts[0].Y)
			if *outDir != "" {
				writeFile(filepath.Join(*outDir, "kuzmin.pts"), func(f *os.File) error {
					return pbbsio.WritePoints2D(f, pts)
				})
			}
		}
	})
}

func writeFile(path string, write func(*os.File) error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpbgen:", err)
	os.Exit(1)
}

func toInt64(w *core.Worker, xs []uint32) []int64 {
	return core.Tabulate(w, len(xs), func(i int) int64 { return int64(xs[i]) })
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
