package suffix

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// Native fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzX` explores further.

var fuzzPool *core.Pool

func FuzzArrayAgainstNaive(f *testing.F) {
	f.Add([]byte("banana"))
	f.Add([]byte("mississippi"))
	f.Add([]byte{1, 1, 1, 2, 1, 1})
	f.Add([]byte{})
	f.Add([]byte("banana\x00"))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0})
	// Every byte value (σ = 256: 9-bit codes, 7 per packed key), then a
	// repeat of the first 144 so groups stay tied past the first sort.
	all := make([]byte, 400)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		want := NaiveArray(raw)
		legs := map[string][]int32{
			"doubling":         Array(nil, raw),
			"doubling-checked": ArrayOpts(nil, raw, true),
			"dc3":              ArrayDC3(raw),
		}
		fuzzPool.Do(func(w *core.Worker) {
			legs["doubling-2w"] = ArrayOpts(w, raw, false)
			legs["doubling-2w-checked"] = ArrayOpts(w, raw, true)
		})
		for name, got := range legs {
			if len(got) != len(want) {
				t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: sa[%d] = %d, want %d", name, i, got[i], want[i])
				}
			}
		}
	})
}

func FuzzBWTRoundTrip(f *testing.F) {
	f.Add([]byte("abracadabra"))
	f.Add([]byte("aa"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		// Bytes must be nonzero (sentinel contract).
		s := make([]byte, len(raw))
		for i, b := range raw {
			s[i] = b%255 + 1
		}
		bwt := BWTEncode(nil, s)
		if got := BWTDecode(nil, bwt); !bytes.Equal(got, s) {
			t.Fatalf("round trip: %q -> %q", s, got)
		}
	})
}
