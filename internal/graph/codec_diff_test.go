package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential test of the shared group stanza (decodeGroup): its three
// consumers must agree on every row. decodeRow's output is checked
// against the row that was encoded; CountIn must equal a popcount over
// that output and FindFirstIn the first hit of a linear scan over it.

// rowGraph wraps row as vertex v of a CGraph whose lower vertices have
// empty rows. With after == nil the row's last byte is the last before
// the pool's zero pad, so every over-read of the group loads lands in
// the pad; otherwise vertex v+1 holds after, and the over-reads land in
// its bytes instead, which the lane masks must cut away.
func rowGraph(v int32, row, after []int32) *CGraph {
	rows := [][]int32{row}
	if after != nil {
		rows = append(rows, after)
	}
	n := v + int32(len(rows))
	c := &CGraph{N: n, EOffs: make([]int32, n+1), BOffs: make([]int64, n+1), MaxDeg: int32(max(len(row), len(after)))}
	for i, r := range rows {
		at := v + int32(i)
		c.EOffs[at+1] = c.EOffs[at] + int32(len(r))
		c.BOffs[at+1] = c.BOffs[at] + int64(encRowSize(at, r))
	}
	c.Bytes = make([]byte, c.BOffs[n]+codecSlack)
	for i, r := range rows {
		at := v + int32(i)
		encodeRow(at, r, c.Bytes[c.BOffs[at]:c.BOffs[at+1]])
	}
	return c
}

// checkRowConsumers asserts the three consumers agree on vertex v of c,
// whose row is want, under bitmap bm.
func checkRowConsumers(t *testing.T, c *CGraph, v int32, want []int32, bm []uint64) {
	t.Helper()
	got := c.RowInto(v, make([]int32, c.MaxDeg))
	if !slices.Equal(got, want) {
		t.Fatalf("RowInto(%d) = %v, want %v", v, got, want)
	}
	first, count := int32(-1), int64(0)
	for _, u := range got {
		if bm[uint32(u)>>6]>>(uint32(u)&63)&1 != 0 {
			if first < 0 {
				first = u
			}
			count++
		}
	}
	if n := c.CountIn(v, bm); n != count {
		t.Fatalf("CountIn(%d) = %d, a scan of the decoded row counts %d", v, n, count)
	}
	if u := c.FindFirstIn(v, bm); u != first {
		t.Fatalf("FindFirstIn(%d) = %d, a scan of the decoded row finds %d", v, u, first)
	}
}

// gapOfWidth draws a gap that encodes in exactly width payload bytes.
func gapOfWidth(r *rand.Rand, width int) int32 {
	lo := int32(1)
	if width > 1 {
		lo = 1 << (8 * (width - 1))
	}
	return lo + r.Int31n(min(lo, 16)*255) // low in the width's range: the bitmaps span the row
}

func TestGroupStanzaConsumersAgree(t *testing.T) {
	// Lane widths of one half-group, repeated along the row: each forces
	// one path of decodeGroup.
	shapes := []struct {
		name   string
		widths [4]int
	}{
		{"all 1-byte: zero control word", [4]int{1, 1, 1, 1}},
		{"mixed, payload of 6 bytes: one 8-byte load", [4]int{1, 2, 1, 2}},
		{"payload of exactly 8 bytes", [4]int{2, 2, 2, 2}},
		{"payload of 9 bytes: per-lane loads", [4]int{3, 3, 2, 1}},
		{"one 4-byte gap, payload of 10 bytes", [4]int{4, 1, 3, 2}},
	}
	r := rand.New(rand.NewSource(16))
	for _, shape := range shapes {
		for _, deg := range []int{1, 2, 8, 9, 10, 16, 17, 100} {
			t.Run(fmt.Sprintf("%s/deg%d", shape.name, deg), func(t *testing.T) {
				for rep := 0; rep < 8; rep++ {
					v := r.Int31n(300)
					row := []int32{r.Int31n(600)} // first neighbor on either side of v
					wide := 0
					for i := 1; i < deg; i++ {
						w := shape.widths[(i-1)%4]
						if w == 4 {
							if wide++; wide > 1 {
								w = 3 // one 16M gap fits the bitmaps, thirty do not
							}
						}
						row = append(row, row[i-1]+gapOfWidth(r, w))
					}
					words := int(row[deg-1])/64 + 1
					bitmaps := [][]uint64{make([]uint64, words), make([]uint64, words), make([]uint64, words), make([]uint64, words)}
					for i := range bitmaps[0] {
						bitmaps[1][i] = ^uint64(0)
						bitmaps[2][i] = r.Uint64()
						bitmaps[3][i] = r.Uint64() & r.Uint64() & r.Uint64() & r.Uint64()
					}
					only := row[r.Intn(deg)] // one member set, nothing else
					setBit(bitmaps[0], only)
					atPad, midPool := rowGraph(v, row, nil), rowGraph(v, row, []int32{0, 1 << 30})
					for _, bm := range bitmaps {
						checkRowConsumers(t, atPad, v, row, bm)
						checkRowConsumers(t, midPool, v, row, bm)
					}
				}
			})
		}
	}
}
