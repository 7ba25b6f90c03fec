// Command benchmark is the repository's one benchmark: six workloads
// over the RPB kernels and the graph stack, seven end-to-end metrics per
// workload, and a traced mode that reports per-layer metrics. Every
// timed run is verified against its oracle. See README.md beside this
// file, and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                          every workload, end-to-end metrics
//	go run ./benchmark -trace 1                 every workload, per-layer metrics
//	go run ./benchmark -workload build -seed 7  one workload
//	go run ./benchmark -aa 5                    five full sets of one seed in fresh processes: spreads against bounds
//
// The last line of standard output of a one-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; a run of every
// workload prints one such line per workload, with the workload's name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// meta records what is needed to compare a result file later.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Started    string  `json:"started"`
}

// report is what -out writes.
type report struct {
	Meta       meta         `json:"meta"`
	Runs       []*runResult `json:"runs"`
	TotalWallS float64      `json:"total_wall_s"`
}

// buildCommit is the commit the running code was built from: the
// build's vcs.revision, else what git says of the working directory,
// else "unknown" (the acceptance checkout is not a repository).
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func newMeta(commit string, seed uint64, seconds float64) meta {
	if commit == "" {
		commit = buildCommit()
	}
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				model = strings.TrimSpace(val)
				break
			}
		}
	}
	return meta{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: poolWorkers(),
		CPUModel: model, Seed: seed, Seconds: seconds, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// resultLine is the last line a run prints.
type resultLine struct {
	Workload  string            `json:"workload,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func lineOf(r *runResult, named bool) resultLine {
	l := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	if r.Traced {
		// Every declared per-layer metric, 0 where it does not apply.
		l.Metrics = make(map[string]metric)
		for _, d := range perLayer() {
			l.Metrics[d.name] = metric{r.PerLayer[d.name].Value, d.unit}
		}
	}
	if named {
		l.Workload = r.Workload
	}
	return l
}

// printRun writes the human-readable account of one run.
func printRun(out io.Writer, r *runResult) {
	fmt.Fprintf(out, "== %s  seed %d (seeded: %v)  workers %d  GOMAXPROCS %d  set-ups %d  warm-up %d  timed passes %d  wall %.1f s\n",
		r.Workload, r.Seed, r.Seeded, r.Workers, r.GoMaxProcs, r.Setups, r.Warmup, r.Passes, r.WallS)
	for _, d := range endToEnd {
		m := r.EndToEnd[d.name]
		n := r.Passes // the sample count behind the statistic
		switch d.name {
		case "setup_s":
			n = r.Setups
		case "input_mb":
			n = 1
		}
		fmt.Fprintf(out, "  %-28s %14.6g %-8s (%s is better, bound %.2f, n = %d)\n", d.name, m.Value, m.Unit, d.better, d.bound, n)
	}
	fmt.Fprintf(out, "  %-28s %14.6g %-8s (%d failed of %d verified runs)\n", "fail_rate", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Failed, r.Attempted)
	for _, k := range r.Kernels {
		fmt.Fprintf(out, "  kernel %-18s %-8s x%-2d p50 %10.6f s  p75 %10.6f s  (n = %d)\n", k.Kernel, k.Variant, k.Calls, k.P50S, k.P75S, k.Samples)
	}
	for _, d := range perLayer() {
		if m := r.PerLayer[d.name]; m.Value != 0 {
			fmt.Fprintf(out, "  %-44s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "input seed (graph_plain, graph_comp and build generate from it)")
		seconds = fs.Float64("seconds", 10, "keep timing passes for this long (and for at least 40 passes)")
		traceOn = fs.Int("trace", 0, "1: traced run, reporting per-layer metrics")
		spans   = fs.String("spans", "", "traced run: write the spans to this file (one workload only)")
		outPath = fs.String("out", "", "write the full result, with its meta block, to this file")
		commit  = fs.String("commit", "", "commit to record (default: the build's vcs.revision, else git's HEAD)")
		aa      = fs.Int("aa", 0, "A/A mode: run every workload this many times in fresh processes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *aa > 0 {
		return runAA(*aa, newMeta(*commit, *seed, *seconds), stdout, stderr)
	}
	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *spans != "" && (len(todo) != 1 || *traceOn != 1) {
		fmt.Fprintln(stderr, "benchmark: -spans needs -trace 1 and one -workload")
		return 2
	}

	cfg := config{seed: *seed, seconds: *seconds, traced: *traceOn == 1, sz: fullSizes}
	return execute(cfg, todo, options{spans: *spans, out: *outPath, commit: *commit}, stdout, stderr)
}

// options says where a run's files go.
type options struct {
	spans, out, commit string
}

// execute runs the workloads in todo, prints their results, and returns
// the exit code: 1 if any verification failed.
func execute(cfg config, todo []*workload, opt options, stdout, stderr io.Writer) int {
	start := time.Now()
	rep := report{Meta: newMeta(opt.commit, cfg.seed, cfg.seconds)}
	failed := false
	var lines []resultLine
	for _, w := range todo {
		res, sp := runWorkload(cfg, w)
		printRun(stdout, res)
		rep.Runs = append(rep.Runs, res)
		lines = append(lines, lineOf(res, len(todo) > 1))
		failed = failed || res.Failed > 0
		if opt.spans != "" {
			if err := writeTrace(opt.spans, rep.Meta, sp); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}
	rep.TotalWallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "total wall %.1f s  commit %s  %s  nproc %d  %s\n", rep.TotalWallS, rep.Meta.Commit, rep.Meta.GoVersion, rep.Meta.NProc, rep.Meta.CPUModel)
	if opt.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(opt.out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: write result:", err)
			return 1
		}
	}
	for _, l := range lines {
		data, err := json.Marshal(l)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: encode result:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if failed {
		return 1
	}
	return 0
}

// runAA runs the full set n times on the same seed, each in a fresh
// process, and prints for every workload and end-to-end metric the
// values, their quartile spread as a share of the median, and the
// bound. It fails if any spread exceeds its bound.
func runAA(n int, m meta, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -aa:", err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", "all", "-seed", fmt.Sprint(m.Seed), "-seconds", fmt.Sprint(m.Seconds), "-commit", m.Commit)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: -aa: set %d: %v\n", i, err)
			return 1
		}
		for _, line := range strings.Split(string(out), "\n") {
			var l resultLine
			if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &l) != nil {
				continue
			}
			if values[l.Workload] == nil {
				values[l.Workload] = map[string][]float64{}
			}
			for name, v := range l.Metrics {
				values[l.Workload][name] = append(values[l.Workload][name], v.Value)
			}
		}
		fmt.Fprintf(stdout, "set %d of %d done\n", i+1, n)
	}
	fmt.Fprintf(stdout, "A/A over %d sets  seed %d  commit %s  %s  nproc %d  GOMAXPROCS %d  %s\n", n, m.Seed, m.Commit, m.GoVersion, m.NProc, m.GoMaxProcs, m.CPUModel)
	fmt.Fprintf(stdout, "%-12s %-16s %8s %6s  %s\n", "workload", "metric", "spread", "bound", "values")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			spread := quartileSpread(vs)
			verdict := ""
			if spread > d.bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-16s %8.4f %6.2f  %.6g%s\n", w.name, d.name, spread, d.bound, vs, verdict)
		}
	}
	return code
}
