package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},         // rank 1.5 between 2 and 3
		{[]float64{4, 1, 3, 2}, 0.75, 3.25},       // rank 2.25 between 3 and 4
		{[]float64{10, 20, 30, 40, 50}, 0.75, 40}, // rank 3 exactly
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46},  // rank 3.6
		{[]float64{7}, 0.75, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The two paper ratios are bench.GeoMean over per-kernel terms.
func TestGeoMeanOfRatioTerms(t *testing.T) {
	if got := bench.GeoMean([]float64{1, 4}); !near(got, 2) {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := bench.GeoMean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8,4) = %v, want 4", got)
	}
	if got := bench.GeoMean(nil); got != 0 {
		t.Errorf("GeoMean of no terms = %v, want 0 (the metric does not apply)", got)
	}
}

// tax_ratio on hand-made passes: kernel a takes 2 s as rpb and 1 s as
// direct, kernel b 8 s and 1 s, so rpb ÷ direct is sqrt(2 × 8) = 4; the
// same times read as unchecked and checked give 1/4; a pass without a
// reference variant gives exactly 1.
func TestTaxRatio(t *testing.T) {
	passes := func(p *prepared) []passSample {
		p.index()
		return []passSample{{kernelS: []float64{2, 1, 8, 1}}, {kernelS: []float64{2, 1, 8, 1}}, {kernelS: []float64{9, 9, 9, 9}}}
	}
	pair := func(second string) *prepared {
		return &prepared{groups: [][]*kernel{
			{{name: "a", variant: "rpb"}, {name: "a", variant: second}},
			{{name: "b", variant: "rpb"}, {name: "b", variant: second}},
		}}
	}
	if p := pair("direct"); !near(taxRatio(p, passes(p)), 4) {
		t.Errorf("rpb over direct = %v, want 4", taxRatio(p, passes(p)))
	}
	if p := pair("checked"); !near(taxRatio(p, passes(p)), 0.25) {
		t.Errorf("checked over unchecked = %v, want 0.25", taxRatio(p, passes(p)))
	}
	single := &prepared{groups: [][]*kernel{{{name: "a", variant: "rpb"}}, {{name: "b", variant: "sync"}}}}
	if got := taxRatio(single, passes(single)); got != 1 {
		t.Errorf("tax ratio without a reference variant = %v, want 1", got)
	}
}

// The expected values are statistics.quantiles(xs, n=4) worked by hand:
// for 1..10 the quartiles are 2.75, 5.5, 8.25; for (10, 12) they are
// 9.5, 11, 12.5.
func TestQuartileSpread(t *testing.T) {
	if got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := quartileSpread([]float64{12, 10}); !near(got, 3.0/11) {
		t.Errorf("spread of (10, 12) = %v, want %v", got, 3.0/11)
	}
	if got := quartileSpread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

func TestSelfTimeOnNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 2, StartNs: 20, EndNs: 30},
		{ID: 4, Parent: 1, StartNs: 50, EndNs: 70},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 10, 4: 20}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerParents(t *testing.T) {
	var none *tracer
	none.end(none.begin("ignored", nil), nil) // a nil tracer records nothing

	tr := newTracer("w")
	root := tr.begin("workload", nil)
	pass := tr.begin("pass", nil)
	tr.timed("kernel", tr.t0, tr.t0.Add(5), nil, nil)
	tr.end(pass, nil)
	tr.end(root, nil)
	if len(tr.spans) != 3 || tr.spans[0].Parent != 0 || tr.spans[1].Parent != root || tr.spans[2].Parent != pass {
		t.Fatalf("wrong nesting: %+v", tr.spans)
	}
	if k := tr.spans[2]; k.StartNs != 0 || k.EndNs != 5 {
		t.Errorf("timed span kept [%d, %d], want [0, 5]", k.StartNs, k.EndNs)
	}
}

func testConfig(traced bool) config {
	return config{seed: 7, traced: traced, sz: testSizes}
}

// Every workload, at test scale: every run verifies, and the untraced
// run reports every end-to-end metric with a value that is not 0.
func TestWorkloadsVerifyAndReportEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res, _ := runWorkload(testConfig(false), w)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if res.Passes != 2 {
			t.Errorf("%s: %d timed passes, want 2", w.name, res.Passes)
		}
		line := lineOf(res, false)
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := line.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: %s = %+v (present: %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
		}
	}
}

// The traced run of every workload: spans are well formed, kernel spans
// sum to their pass's time, the emitted names are exactly the declared
// ones, and every declared name is produced by at least one workload.
func TestTracedRunsSpansAndNames(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer() {
		declared[d.name] = true
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		res, spans := runWorkload(testConfig(true), w)
		if res.Failed != 0 {
			t.Errorf("%s: %v", w.name, res.Failures)
		}
		for name := range res.PerLayer {
			if !declared[name] {
				t.Errorf("%s: run produced undeclared per-layer metric %q", w.name, name)
			}
			produced[name] = true
		}
		if got := lineOf(res, false).Metrics; len(got) != len(declared) {
			t.Errorf("%s: traced run emits %d metrics, %d declared", w.name, len(got), len(declared))
		}
		checkSpans(t, w.name, spans)
	}
	for name := range declared {
		if !produced[name] {
			t.Errorf("declared per-layer metric %q is produced by no workload", name)
		}
	}
	if w := findWorkload("tax_1t"); w != nil {
		res, _ := runWorkload(testConfig(true), w)
		for _, name := range []string{"sched.steals_per_pass", "sched.parks_per_pass"} {
			if v := res.PerLayer[name].Value; v != 0 {
				t.Errorf("tax_1t: %s = %v, want 0 with one worker", name, v)
			}
		}
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	kernelNs := map[int]int64{}
	roots := 0
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) has unknown parent %d", workload, s.ID, s.Name, s.Parent)
		} else if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("%s: span %d (%s) is not inside its parent %d", workload, s.ID, s.Name, s.Parent)
		}
		if s.Name == "kernel" {
			kernelNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d root spans, want 1", workload, roots)
	}
	passes := 0
	for _, s := range spans {
		if s.Name != "pass" {
			continue
		}
		passes++
		passNs := s.Counters["pass_s"] * 1e9
		if d := math.Abs(float64(kernelNs[s.ID]) - passNs); d > 0.01*passNs {
			t.Errorf("%s: pass span %d: kernel spans sum to %d ns, pass time is %.0f ns", workload, s.ID, kernelNs[s.ID], passNs)
		}
	}
	if passes == 0 {
		t.Errorf("%s: no pass spans", workload)
	}
}

// A damaged oracle must be noticed: the run reports the failure by
// workload, kernel, pass and seed, and the command exits non-zero.
func TestCorruptOracleFailsTheCommand(t *testing.T) {
	cfg := testConfig(false)
	cfg.corrupt = true
	var stdout, stderr bytes.Buffer
	code := execute(cfg, []*workload{findWorkload("graph_plain")}, options{}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with a corrupted PageRank oracle\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed == 0 || last.Failed > last.Attempted {
		t.Errorf("result line %+v does not report the failures", last)
	}
	for _, want := range []string{"workload graph_plain", "kernel pr/plain", "pass 0", "seed 7"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("failure report lacks %q", want)
		}
	}

	stdout.Reset()
	if code := execute(testConfig(false), []*workload{findWorkload("graph_plain")}, options{}, &stdout, &stderr); code != 0 {
		t.Errorf("exit code %d without corruption\n%s", code, stdout.String())
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json declares exactly what this package emits, inside the
// limits the acceptance driver sets.
func TestManifestMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not a legal name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the package (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the package, limit %d", len(got), kind, len(want), limit)
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is not a legal unit", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", g.Name, g.Bound != nil, bounded)
			} else if bounded && (*g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the package, limit 0.25", g.Name, *g.Bound, w.bound)
			}
		}
	}
	compare("end-to-end", m.EndToEnd, endToEnd, 16, true)
	compare("per-layer", m.PerLayer, perLayer(), 128, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}

	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if strings.Join(m.Command, " ") != "go run ./benchmark" {
		t.Errorf("command = %v", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}
