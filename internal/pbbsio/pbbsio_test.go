package pbbsio

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/seqgen"
)

// checkWrite runs one writer and compares its exact output.
func checkWrite(t *testing.T, write func(*bytes.Buffer) error, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("wrote %q, want %q", buf.String(), want)
	}
}

func TestWriteSequenceInt(t *testing.T) {
	checkWrite(t, func(b *bytes.Buffer) error { return WriteSequenceInt(b, []uint32{0, 5, 4294967295, 17}) },
		"sequenceInt\n0\n5\n4294967295\n17\n")
}

func TestWriteWeightedAdjacencyGraph(t *testing.T) {
	g := &graph.WGraph{
		Graph: graph.Graph{N: 3, Offs: []int32{0, 1, 2, 3}, Adj: []int32{1, 2, 0}},
		Wgt:   []uint32{7, 9, 4294967295},
	}
	checkWrite(t, func(b *bytes.Buffer) error { return WriteWeightedAdjacencyGraph(b, g) },
		"WeightedAdjacencyGraph\n3\n3\n0\n1\n2\n1\n2\n0\n7\n9\n4294967295\n")
}

func TestWritePoints2D(t *testing.T) {
	pts := []seqgen.Point{{X: 1.5, Y: -2}, {X: 0, Y: 3.25e-7}}
	checkWrite(t, func(b *bytes.Buffer) error { return WritePoints2D(b, pts) },
		"pbbs_sequencePoint2d\n1.5 -2\n0 3.25e-07\n")
}

func TestEmptySequences(t *testing.T) {
	checkWrite(t, func(b *bytes.Buffer) error { return WriteSequenceInt(b, nil) }, "sequenceInt\n")
	checkWrite(t, func(b *bytes.Buffer) error { return WritePoints2D(b, nil) }, "pbbs_sequencePoint2d\n")
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.N != b.N || a.M() != b.M() {
		return false
	}
	for v := int32(0); v <= a.N; v++ {
		if a.Offs[v] != b.Offs[v] {
			return false
		}
	}
	for e := range a.Adj {
		if a.Adj[e] != b.Adj[e] {
			return false
		}
	}
	return true
}

func TestAdjacencyGraphRoundTrip(t *testing.T) {
	g := &graph.Graph{N: 4, Offs: []int32{0, 2, 3, 3, 4}, Adj: []int32{1, 2, 3, 0}}
	const want = "AdjacencyGraph\n4\n4\n0\n2\n3\n3\n1\n2\n3\n0\n"
	checkWrite(t, func(b *bytes.Buffer) error { return WriteAdjacencyGraph(b, g) }, want)
	got, err := ReadAdjacencyGraph(strings.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, got) {
		t.Fatal("graph round trip mismatch")
	}
}

func TestAdjacencyGraphGeneratedRoundTrip(t *testing.T) {
	edges := graph.RMAT(nil, 8, 4, 3)
	g := graph.BuildCSR(nil, 256, edges)
	var buf bytes.Buffer
	if err := WriteAdjacencyGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAdjacencyGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, got) {
		t.Fatal("generated graph round trip mismatch")
	}
}

func TestAdjacencyGraphRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header":        "NotAGraph\n2\n1\n0\n1\n",
		"truncated offsets": "AdjacencyGraph\n3\n2\n0\n",
		"offset too big":    "AdjacencyGraph\n2\n1\n0\n9\n0\n",
		"offset decreasing": "AdjacencyGraph\n3\n2\n0\n2\n1\n0\n0\n",
		"target range":      "AdjacencyGraph\n2\n1\n0\n0\n7\n",
		"negative n":        "AdjacencyGraph\n-2\n1\n",
	}
	for name, data := range cases {
		if _, err := ReadAdjacencyGraph(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted malformed file", name)
		}
	}
}

// TestAdjacencyGraphErrorLine: a parse error names the line the bad
// token sits on, however the tokens are spread over lines.
func TestAdjacencyGraphErrorLine(t *testing.T) {
	cases := map[string]string{
		"AdjacencyGraph 2 1 0 x":            "pbbsio: line 1:",
		"AdjacencyGraph\n2 1\n0 x\n1\n":     "pbbsio: line 3:",
		"AdjacencyGraph\n\n2\n1\n0\n\n x\n": "pbbsio: line 7:",
	}
	for data, want := range cases {
		_, err := ReadAdjacencyGraph(strings.NewReader(data))
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: error %v, want prefix %q", data, err, want)
		}
	}
}

// TestAdjacencyGraphHeaderClaim: the counts a header claims are backed
// only by the entries that follow. A header-only file claiming 2^24
// vertices and edges must be refused having allocated under 1 MB, not
// the 128 MiB of offsets and targets the claim would reserve.
func TestAdjacencyGraphHeaderClaim(t *testing.T) {
	const claim = 1 << 24
	in := strings.NewReader(fmt.Sprintf("%s\n%d\n%d\n", HeaderAdjacency, claim, claim))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadAdjacencyGraph(in)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a header with no entries behind it")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting a header-only claim allocated %d bytes, want under 1 MB", got)
	}
}
