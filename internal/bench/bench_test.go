package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAllEighteenRegistered checks the suite matches Table 1's roster
// plus the graph-analytics extension (cc, pr, tc, kcore).
func TestAllEighteenRegistered(t *testing.T) {
	want := []string{"bfs", "bw", "cc", "dedup", "dr", "hist", "isort",
		"kcore", "lrs", "mis", "mm", "msf", "pr", "sa", "sf", "sort",
		"sssp", "tc"}
	got := All()
	if len(got) != len(want) {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Name
		}
		t.Fatalf("registered %d benchmarks %v, want %d", len(got), names, len(want))
	}
	for i, s := range got {
		if s.Name != want[i] {
			t.Fatalf("benchmark %d = %q, want %q", i, s.Name, want[i])
		}
		if s.Long == "" || len(s.Inputs) == 0 || s.Make == nil {
			t.Fatalf("benchmark %q incompletely registered: %+v", s.Name, s)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("sort"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find should fail for unknown benchmark")
	}
}

// TestEveryBenchmarkEveryVariantVerifies is the suite-wide smoke +
// correctness test: every benchmark, on every input, runs and verifies
// under (a) the library expression sequentially, (b) the library
// expression on a small pool, and (c) the direct baseline with 3
// threads and with 0, which every baseline reads as one.
func TestEveryBenchmarkEveryVariantVerifies(t *testing.T) {
	for _, spec := range All() {
		for _, input := range spec.Inputs {
			inst := spec.Make(input, ScaleTest)
			t.Run(spec.Name+"-"+input+"-seq", func(t *testing.T) {
				if _, err := Measure(inst, VariantLibrary, core.ModeUnchecked, 0, 1); err != nil {
					t.Fatal(err)
				}
			})
			t.Run(spec.Name+"-"+input+"-pool", func(t *testing.T) {
				if _, err := Measure(inst, VariantLibrary, core.ModeUnchecked, 3, 1); err != nil {
					t.Fatal(err)
				}
			})
			t.Run(spec.Name+"-"+input+"-direct", func(t *testing.T) {
				for _, threads := range []int{3, 0} {
					if _, err := Measure(inst, VariantDirect, core.ModeUnchecked, threads, 1); err != nil {
						t.Fatalf("threads=%d: %v", threads, err)
					}
				}
			})
		}
	}
}

// TestModesProduceIdenticalResults runs every benchmark under all three
// expression modes; verification ties them to one oracle.
func TestModesProduceIdenticalResults(t *testing.T) {
	for _, spec := range All() {
		input := spec.Inputs[0]
		inst := spec.Make(input, ScaleTest)
		for _, mode := range []core.Mode{core.ModeUnchecked, core.ModeChecked, core.ModeSynchronized} {
			t.Run(spec.Name+"-"+mode.String(), func(t *testing.T) {
				if _, err := Measure(inst, VariantLibrary, mode, 2, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMeasureRestoresMode: the library expression sees the mode Measure
// is given on every rep, and the caller's mode is back afterwards, also
// when verification fails.
func TestMeasureRestoresMode(t *testing.T) {
	defer core.SetMode(core.GetMode())
	for _, fail := range []bool{false, true} {
		var seen []core.Mode
		inst := &Instance{
			RunLibrary: func(*core.Worker) { seen = append(seen, core.GetMode()) },
			Verify: func() error {
				if fail {
					return fmt.Errorf("planted failure")
				}
				return nil
			},
		}
		core.SetMode(core.ModeSynchronized)
		_, err := Measure(inst, VariantLibrary, core.ModeChecked, 0, 3)
		if (err != nil) != fail {
			t.Fatalf("fail=%v: err = %v", fail, err)
		}
		wantReps := 3
		if fail {
			wantReps = 1
		}
		if len(seen) != wantReps {
			t.Fatalf("fail=%v: %d reps ran, want %d", fail, len(seen), wantReps)
		}
		for rep, m := range seen {
			if m != core.ModeChecked {
				t.Errorf("fail=%v: rep %d ran under %v, want checked", fail, rep, m)
			}
		}
		if m := core.GetMode(); m != core.ModeSynchronized {
			t.Errorf("fail=%v: mode after Measure = %v, want the caller's synchronized", fail, m)
		}
	}
}

func TestMeasureRejectsUnknownVariant(t *testing.T) {
	spec, _ := Find("hist")
	inst := spec.Make("exponential", ScaleTest)
	if _, err := Measure(inst, Variant("bogus"), core.ModeUnchecked, 1, 1); err == nil {
		t.Fatal("expected error for unknown variant")
	}
}

func TestMeasureRepsAveraged(t *testing.T) {
	spec, _ := Find("hist")
	inst := spec.Make("exponential", ScaleTest)
	secs, err := Measure(inst, VariantLibrary, core.ModeUnchecked, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Fatalf("mean seconds = %v", secs)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("GeoMean(1,4) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
	if g := GeoMean([]float64{3}); g < 2.999 || g > 3.001 {
		t.Fatalf("GeoMean(3) = %v", g)
	}
}

func TestScaleSizes(t *testing.T) {
	if TextSize(ScaleTest) >= TextSize(ScaleSmall) || TextSize(ScaleSmall) >= TextSize(ScaleDefault) {
		t.Fatal("text sizes not increasing")
	}
	if SeqSize(ScaleTest) >= SeqSize(ScaleDefault) {
		t.Fatal("seq sizes not increasing")
	}
	if PointCount(ScaleTest) >= PointCount(ScaleDefault) {
		t.Fatal("point counts not increasing")
	}
}

// TestTable1PatternRows checks the declared site census matches the
// paper's Table 1 row for every benchmark.
func TestTable1PatternRows(t *testing.T) {
	want := map[string][]core.Pattern{
		"bw":    {core.RO, core.Stride, core.Block, core.DC, core.SngInd, core.AW},
		"lrs":   {core.RO, core.Stride, core.Block, core.DC, core.SngInd, core.AW},
		"sa":    {core.RO, core.Stride, core.Block, core.DC, core.SngInd, core.AW},
		"dr":    {core.RO, core.Stride, core.Block, core.SngInd, core.RngInd, core.AW},
		"mis":   {core.RO, core.Stride, core.Block, core.DC, core.AW},
		"mm":    {core.RO, core.Stride, core.Block, core.DC, core.AW},
		"sf":    {core.RO, core.Stride, core.Block, core.DC, core.AW},
		"msf":   {core.RO, core.Stride, core.Block, core.DC, core.SngInd, core.AW},
		"sort":  {core.RO, core.Stride, core.Block, core.DC, core.RngInd},
		"dedup": {core.RO, core.Stride, core.Block, core.AW},
		"hist":  {core.RO, core.Stride, core.Block, core.SngInd},
		"isort": {core.RO, core.Stride, core.Block, core.SngInd},
		// bfs's library expression is the direction-optimizing hybrid:
		// the AW relaxations of Table 1 plus the regular frontier
		// machinery (bitmap scatter/pack, word-wise bottom-up scan).
		"bfs":  {core.RO, core.Stride, core.Block, core.AW},
		"sssp": {core.AW},
		// Analytics kernels over the Adjacency seam: each mixes its
		// regular phases with one scared AW relaxation.
		"cc":    {core.Stride, core.AW},
		"pr":    {core.RO, core.Stride, core.Block, core.AW},
		"tc":    {core.RO, core.Block, core.AW},
		"kcore": {core.RO, core.Block, core.AW},
	}
	c := core.TakeCensus()
	for name, pats := range want {
		got := c.PerBench[name]
		if got == nil {
			t.Errorf("%s: no sites declared", name)
			continue
		}
		wantSet := map[core.Pattern]bool{}
		for _, p := range pats {
			wantSet[p] = true
		}
		for _, p := range core.Patterns {
			if wantSet[p] != got[p] {
				t.Errorf("%s: pattern %v declared=%v want=%v", name, p, got[p], wantSet[p])
			}
		}
	}
}

func TestMeasureSurfacesVerificationFailure(t *testing.T) {
	inst := &Instance{
		RunLibrary: func(*core.Worker) {},
		RunDirect:  func(int) {},
		Verify:     func() error { return fmt.Errorf("planted failure") },
	}
	if _, err := Measure(inst, VariantLibrary, core.ModeUnchecked, 0, 1); err == nil {
		t.Fatal("verification failure swallowed")
	} else if !strings.Contains(err.Error(), "planted failure") {
		t.Fatalf("error lost cause: %v", err)
	}
}

func TestMeasureResetCalledPerRep(t *testing.T) {
	resets := 0
	inst := &Instance{
		RunLibrary: func(*core.Worker) {},
		Reset:      func() { resets++ },
	}
	if _, err := Measure(inst, VariantLibrary, core.ModeUnchecked, 0, 3); err != nil {
		t.Fatal(err)
	}
	if resets != 3 {
		t.Fatalf("Reset called %d times, want 3", resets)
	}
}

// TestClassifyMatchesSearch: the branch-free splitter search must agree
// with sort.Search on every splitter count (odd, even, empty) and on
// keys below, between, equal to and above duplicated splitters.
func TestClassifyMatchesSearch(t *testing.T) {
	for n := 0; n <= 33; n++ {
		splitters := make([]uint32, n)
		for i := range splitters {
			splitters[i] = uint32(10 * (i / 2)) // every value twice
		}
		for x := uint32(0); x <= uint32(10*(n/2))+11; x++ {
			want := sort.Search(n, func(i int) bool { return x < splitters[i] })
			if got := classify(splitters, x); got != want {
				t.Fatalf("classify(%d splitters, %d) = %d, want %d", n, x, got, want)
			}
		}
	}
}

// TestKCoreWithoutResetPanics runs each k-core variant a second time
// without Reset: every vertex is already peeled, so the level loop has
// nothing to seed and must stop with a panic naming Reset instead of
// driving empty batches forever.
func TestKCoreWithoutResetPanics(t *testing.T) {
	spec, err := Find("kcore")
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		run  func(*Instance)
	}{
		{"library", func(inst *Instance) { inst.RunLibrary(nil) }},
		{"direct", func(inst *Instance) { inst.RunDirect(1) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			inst := spec.Make(spec.Inputs[0], ScaleTest)
			inst.Reset()
			v.run(inst)
			if err := inst.Verify(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Reset") {
					t.Fatalf("second run without Reset: recovered %q, want a panic naming Reset", msg)
				}
			}()
			v.run(inst)
		})
	}
}
