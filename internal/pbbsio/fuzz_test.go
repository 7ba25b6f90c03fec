package pbbsio

import (
	"bytes"
	"strings"
	"testing"
)

// Robustness fuzzing of the one reader of outside input: it must reject
// or accept arbitrary bytes without panicking or allocating what a
// header merely claims. Valid inputs that parse must re-serialize to a
// structure that parses identically.

func FuzzReadAdjacencyGraph(f *testing.F) {
	var buf bytes.Buffer
	f.Add("AdjacencyGraph\n2\n2\n0\n1\n1\n0\n")
	f.Add("AdjacencyGraph\n0\n0\n")
	f.Add("AdjacencyGraph\n1\n999999999999999\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		g, err := ReadAdjacencyGraph(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		// Accepted graphs must be structurally valid and re-serializable.
		if g.Offs[g.N] != g.M() || int(g.M()) != len(g.Adj) {
			t.Fatalf("accepted inconsistent graph: n=%d m=%d adj=%d", g.N, g.M(), len(g.Adj))
		}
		buf.Reset()
		if err := WriteAdjacencyGraph(&buf, g); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		g2, err := ReadAdjacencyGraph(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if g2.N != g.N || g2.M() != g.M() {
			t.Fatalf("round trip changed sizes")
		}
	})
}
