package report

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

func TestTable1ContainsAllBenchmarks(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	out := sb.String()
	for _, name := range []string{"bw", "lrs", "sa", "dr", "mis", "mm", "sf",
		"msf", "sort", "dedup", "hist", "isort", "bfs", "sssp",
		"cc", "pr", "tc", "kcore"} {
		if !strings.Contains(out, name+" ") && !strings.Contains(out, "\n"+name) {
			t.Errorf("Table 1 missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "SngInd") || !strings.Contains(out, "AW") {
		t.Error("Table 1 missing pattern columns")
	}
}

func TestTable2RendersThreeGraphs(t *testing.T) {
	var sb strings.Builder
	pool := core.NewPool(2)
	defer pool.Close()
	pool.Do(func(w *core.Worker) { Table2(&sb, w, bench.ScaleTest) })
	out := sb.String()
	for _, g := range []string{"link", "rmat", "road"} {
		if !strings.Contains(out, g) {
			t.Errorf("Table 2 missing %s:\n%s", g, out)
		}
	}
}

func TestTable3RendersFearSpectrum(t *testing.T) {
	var sb strings.Builder
	Table3(&sb)
	out := sb.String()
	for _, f := range []string{"Fearless", "Comfortable", "Scared"} {
		if !strings.Contains(out, f) {
			t.Errorf("Table 3 missing %s", f)
		}
	}
	if !strings.Contains(out, "IndForEach") {
		t.Error("Table 3 missing library expression names")
	}
}

func TestFig3ReportsIrregularShare(t *testing.T) {
	var sb strings.Builder
	Fig3(&sb)
	out := sb.String()
	if !strings.Contains(out, "irregular") {
		t.Errorf("Fig 3 missing irregular summary:\n%s", out)
	}
	if !strings.Contains(out, "all 18 benchmarks contain irregular parallelism") {
		t.Errorf("Fig 3 missing Sec 7.2 claim:\n%s", out)
	}
}

func TestFig4RunsOnTinyInputs(t *testing.T) {
	var sb strings.Builder
	if err := Fig4(&sb, Config{Scale: bench.ScaleTest, Threads: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig 4(a)") || !strings.Contains(out, "Fig 4(b)") {
		t.Errorf("Fig 4 output incomplete:\n%s", out)
	}
	for _, spec := range bench.All() {
		for _, input := range spec.Inputs {
			if n := strings.Count(out, "\n"+spec.Name+"-"+input+" "); n != 2 {
				t.Errorf("Fig 4 has %d rows for %s-%s, want one per table:\n%s", n, spec.Name, input, out)
			}
		}
	}
	if strings.Count(out, "gmean") != 2 {
		t.Error("Fig 4 missing a gmean line")
	}
}

func TestFig5aRuns(t *testing.T) {
	var sb strings.Builder
	if err := Fig5a(&sb, Config{Scale: bench.ScaleTest, Threads: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, b := range []string{"bw", "lrs", "sa"} {
		if !strings.Contains(out, b) {
			t.Errorf("Fig 5a missing %s:\n%s", b, out)
		}
	}
}

func TestFig5bRuns(t *testing.T) {
	var sb strings.Builder
	if err := Fig5b(&sb, Config{Scale: bench.ScaleTest, Threads: 2, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, row := range []string{"hist-exponential", "isort-exponential"} {
		if !strings.Contains(out, row) {
			t.Errorf("Fig 5b missing %s:\n%s", row, out)
		}
	}
	if strings.Contains(out, "bw-wiki") {
		t.Errorf("Fig 5b times bw, which reads no ModeSynchronized:\n%s", out)
	}
}

func TestFig6Runs(t *testing.T) {
	var sb strings.Builder
	Fig6(&sb, Config{Threads: 2, Reps: 1})
	out := sb.String()
	for _, v := range []string{"serial", "goroutine per task", "goroutine per core",
		"mutex job queue", "work stealing"} {
		if !strings.Contains(out, v) {
			t.Errorf("Fig 6 missing variant %q:\n%s", v, out)
		}
	}
	if !strings.Contains(out, "capped") {
		t.Errorf("Fig 6 should note the per-task cap:\n%s", out)
	}
}

func TestFig6Kernels(t *testing.T) {
	// All five variants must compute identical results.
	ref := fig6Vector(1000)
	serialHash(ref)
	check := func(name string, got []uint64) {
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: element %d = %d, want %d", name, i, got[i], ref[i])
			}
		}
	}
	v := fig6Vector(1000)
	perTaskHash(v)
	check("perTask", v)
	v = fig6Vector(1000)
	perCoreHash(v, 3)
	check("perCore", v)
	v = fig6Vector(1000)
	jobQueueHash(v, 3)
	check("jobQueue", v)
	v = fig6Vector(1000)
	p := poolForTest()
	defer p.Close()
	p.Do(func(w *workerAlias) { workStealHash(w, v) })
	check("workSteal", v)
}

// aliases so the kernel test reads naturally without extra imports.
type workerAlias = core.Worker

func poolForTest() *core.Pool { return core.NewPool(2) }

func TestDynCensusRuns(t *testing.T) {
	var sb strings.Builder
	if err := DynCensus(&sb, bench.ScaleTest, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "bfs-link") || !strings.Contains(out, "total") {
		t.Errorf("dyncensus incomplete:\n%s", out)
	}
	// bfs is pure AW at run time: its row must have nonzero AW and
	// nonzero irregular share.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bfs-link") {
			if strings.Contains(line, " 0.0%") {
				t.Errorf("bfs should be heavily irregular: %s", line)
			}
		}
	}
}

func TestSchedReportRuns(t *testing.T) {
	var sb strings.Builder
	if err := SchedReport(&sb, bench.ScaleTest, "hist", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "steal%") || !strings.Contains(out, "hist") ||
		!strings.Contains(out, "splits/stolen") || !strings.Contains(out, "wake-skips") {
		t.Errorf("sched report incomplete:\n%s", out)
	}
}

func TestSchedReportUnknownBench(t *testing.T) {
	var sb strings.Builder
	if err := SchedReport(&sb, bench.ScaleTest, "nope", nil); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// Golden tests: Table 1 and Table 3 are deterministic artifacts; their
// rendered form is pinned so accidental census or metadata drift fails
// loudly. Regenerate with:
//
//	go run ./cmd/rpbreport -what table1 > internal/report/testdata/table1.golden
//	go run ./cmd/rpbreport -what table3 > internal/report/testdata/table3.golden
func TestGoldenTables(t *testing.T) {
	for name, render := range map[string]func(io.Writer){
		"table1": func(w io.Writer) { Table1(w) },
		"table3": func(w io.Writer) { Table3(w) },
	} {
		var sb strings.Builder
		render(&sb)
		want, err := os.ReadFile("testdata/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := strings.TrimRight(sb.String(), "\n")
		if got != strings.TrimRight(string(want), "\n") {
			t.Errorf("%s drifted from golden file;\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

func TestCoverageInventoryMatchesPaper(t *testing.T) {
	var sb strings.Builder
	Coverage(&sb)
	out := sb.String()
	if !strings.Contains(out, "14 of 22") {
		t.Errorf("coverage counts drifted from the paper's 14/22:\n%s", out)
	}
	present := 0
	for _, p := range McCoolPatterns {
		if p.Present {
			present++
		}
		if p.Where == "" {
			t.Errorf("pattern %q missing realization note", p.Name)
		}
	}
	if present != 14 || len(McCoolPatterns) != 22 {
		t.Fatalf("inventory has %d/%d, want 14/22", present, len(McCoolPatterns))
	}
}
