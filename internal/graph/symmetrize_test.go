package graph

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// symmetrizeRef is the body Symmetrize had before it became an integer
// sort, kept as the reference of the differential tests: double the
// list, comparison-sort by (From, To), drop adjacent repeats. The sort
// is the standard library's, so the reference shares no code with the
// function under test.
func symmetrizeRef(edges []Edge) []Edge {
	both := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		both = append(both, e, Edge{From: e.To, To: e.From})
	}
	slices.SortFunc(both, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return slices.Compact(both)
}

// checkSymmetrize compares Symmetrize with the reference sequentially
// and on pools of 1, 2 and 8 workers.
func checkSymmetrize(t *testing.T, name string, edges []Edge) {
	t.Helper()
	want := symmetrizeRef(edges)
	input := slices.Clone(edges)
	check := func(workers string, got []Edge) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %s: Symmetrize returned %d edges differing from the reference's %d", name, workers, len(got), len(want))
		}
		if len(got) != cap(got) {
			t.Fatalf("%s, %s: result has len %d but cap %d, want exactly sized", name, workers, len(got), cap(got))
		}
		if !slices.Equal(edges, input) {
			t.Fatalf("%s, %s: Symmetrize modified its input", name, workers)
		}
	}
	check("nil worker", Symmetrize(nil, edges))
	for _, p := range symPools {
		p.pool.Do(func(w *core.Worker) { check(p.name, Symmetrize(w, edges)) })
	}
}

func TestSymmetrizeMatchesReference(t *testing.T) {
	for _, name := range GraphInputs {
		edges, _ := edgesFor(nil, name, ScaleTest, 0x5e1)
		checkSymmetrize(t, name, edges)
	}
	// Many count/write blocks, with hub rows whose repeats straddle them.
	checkSymmetrize(t, "rmat scale 12", RMAT(nil, 12, 16, 7))

	every := []Edge{{0, 1}, {5, 2}, {2, 5}, {7, 7}, {3, 9}}
	for _, c := range []struct {
		name  string
		edges []Edge
	}{
		{"empty", nil},
		{"one edge", []Edge{{4, 2}}},
		{"self-loops only", []Edge{{3, 3}, {0, 0}, {3, 3}}},
		{"vertex 0 self-loop only", []Edge{{0, 0}}},
		{"both directions present", []Edge{{0, 1}, {1, 0}, {2, 1}, {1, 2}}},
		{"every edge duplicated", append(slices.Clone(every), every...)},
		{"widest key", []Edge{{math.MaxInt32, 0}, {1, math.MaxInt32}, {math.MaxInt32, math.MaxInt32}, {math.MaxInt32 - 1, math.MaxInt32}, {0, 1}}},
	} {
		checkSymmetrize(t, c.name, c.edges)
	}
}

func TestSymmetrizeNegativeEndpointPanics(t *testing.T) {
	edges := RMAT(nil, 8, 4, 3)
	edges[700].To = -1
	edges[41] = Edge{From: -5, To: 2}
	for _, p := range symPools {
		p.pool.Do(func(w *core.Worker) {
			defer func() {
				msg, _ := recover().(string)
				if want := "graph: edge 41 (-5 -> 2) has a negative endpoint"; !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q, want it to contain %q", p.name, msg, want)
				}
			}()
			Symmetrize(w, edges)
		})
	}
}

// FuzzSymmetrize decodes an edge list from the raw bytes — width picks
// how many bytes an id takes (1 to 4, little-endian, top bit cleared),
// so the fuzzer reaches both tiny dense graphs full of repeats and
// 31-bit ids — and compares with the reference.
func FuzzSymmetrize(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{1, 2, 2, 1, 1, 1, 3, 3, 1, 2})                                     // both directions, a repeat, a self-loop
	f.Add(uint8(3), []byte{255, 255, 255, 255, 0, 0, 0, 0, 255, 255, 255, 127, 1, 0, 0, 0})   // ids up to MaxInt32
	f.Add(uint8(1), []byte{0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 5, 0, 5, 0, 9, 9}) // trailing partial edge
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		wd := int(width&3) + 1
		id := func(b []byte) int32 {
			var v uint32
			for k, x := range b {
				v |= uint32(x) << (8 * k)
			}
			return int32(v & math.MaxInt32)
		}
		var edges []Edge
		for ; len(data) >= 2*wd; data = data[2*wd:] {
			edges = append(edges, Edge{From: id(data[:wd]), To: id(data[wd : 2*wd])})
		}
		checkSymmetrize(t, "fuzz", edges)
	})
}
