package graph

import (
	"math"
	"slices"
	"testing"
)

// FuzzCodecRoundTrip round-trips fuzzer-shaped sorted rows through the
// group-varint codec. The row is derived from the raw input: gaps are parsed from
// data with self-describing widths (two low bits of a lead byte pick
// 1-4 payload bytes), so the fuzzer can reach every control-tag
// combination — including max-gap groups of 4-byte payloads — and
// first/v are arbitrary int32s, covering adversarial first-neighbor
// deltas in both directions. Every row also goes through the other two
// consumers of the decoder's group stanza (codec_diff_test.go).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int32(5), int32(7), []byte{})                                                 // single-neighbor row
	f.Add(int32(1<<30), int32(0), []byte{0, 1, 0, 2})                                   // huge negative first delta
	f.Add(int32(0), int32(1<<30), []byte{3, 255, 255, 255, 127, 3, 255, 255, 255, 127}) // max-width gaps
	f.Add(int32(3), int32(1),
		[]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}) // >8 gaps: full group + tail
	f.Add(int32(100), int32(2), []byte{1, 0, 1, 2, 255, 255, 0, 0, 1, 44, 3, 1, 2, 3, 4}) // mixed widths
	f.Fuzz(func(t *testing.T, v, first int32, data []byte) {
		u := first
		if u < 0 {
			u = -(u + 1)
		}
		row := []int32{u}
		for k := 0; k < len(data); {
			width := int(data[k]&3) + 1
			k++
			var gap uint32
			for b := 0; b < width && k < len(data); b++ {
				gap |= uint32(data[k]) << (8 * b)
				k++
			}
			nu := int64(u) + int64(gap)
			if nu > math.MaxInt32 {
				break
			}
			u = int32(nu)
			row = append(row, u)
		}

		sz := encRowSize(v, row)
		buf := make([]byte, sz+codecSlack)
		encodeRow(v, row, buf[:sz])
		out := make([]int32, len(row))
		if got := decodeRow(v, buf, int32(len(row)), out); !slices.Equal(got, row) {
			t.Fatalf("group codec round-trip: got %v, want %v", got, row)
		}
		if sz == 0 {
			t.Fatalf("group codec encodes %d-neighbor row to 0 bytes", len(row))
		}

		// The other two consumers of the group stanza, on the same row:
		// CountIn and FindFirstIn against a scan of the decoded row. They
		// index per-vertex offsets and a bitmap over the ids, so the row
		// sits at a small vertex and only rows of moderate ids take part.
		if last := row[len(row)-1]; last < 1<<24 {
			vg := int32(uint32(v) % 512)
			bm := make([]uint64, last/64+1)
			seed := uint64(len(data))*0x9e3779b97f4a7c15 + uint64(uint32(first)) | 1
			for i := range bm {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				bm[i] = seed
			}
			checkRowConsumers(t, rowGraph(vg, row, nil), vg, row, bm)
			checkRowConsumers(t, rowGraph(vg, row, []int32{vg}), vg, row, bm)
		}
	})
}
