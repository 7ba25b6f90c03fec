package seqgen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestHash64MatchesListing10(t *testing.T) {
	// Spot-check the algebra: the function must be deterministic and
	// avalanche (differ in many bits for adjacent inputs).
	if Hash64(1) != Hash64(1) {
		t.Fatal("Hash64 not deterministic")
	}
	diff := Hash64(1) ^ Hash64(2)
	bits := 0
	for d := diff; d != 0; d &= d - 1 {
		bits++
	}
	if bits < 16 {
		t.Fatalf("poor avalanche: only %d differing bits", bits)
	}
}

func TestHashTask(t *testing.T) {
	v := uint64(42)
	want := Hash64(42)
	HashTask(&v)
	if v != want {
		t.Fatalf("HashTask = %d, want %d", v, want)
	}
}

func TestRngDeterministicAndSplittable(t *testing.T) {
	a := NewRng(5)
	b := NewRng(5)
	for i := uint64(0); i < 100; i++ {
		if a.U64(i) != b.U64(i) {
			t.Fatal("same seed diverged")
		}
	}
	if NewRng(5).U64(0) == NewRng(6).U64(0) {
		t.Fatal("different seeds collided")
	}
	if a.Fork(1).U64(0) == a.Fork(2).U64(0) {
		t.Fatal("forked streams collided")
	}
}

func TestRngRanges(t *testing.T) {
	r := NewRng(7)
	for i := uint64(0); i < 1000; i++ {
		if v := r.Intn(i, 10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(i); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	if r.Intn(0, 0) != 0 || r.Intn(0, -3) != 0 {
		t.Fatal("Intn with n<=0 should be 0")
	}
}

func TestRngUniformityRough(t *testing.T) {
	r := NewRng(11)
	buckets := make([]int, 10)
	const n = 100000
	for i := uint64(0); i < n; i++ {
		buckets[r.Intn(i, 10)]++
	}
	for b, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d has %d draws, expected ~%d", b, c, n/10)
		}
	}
}

func TestExponentialIntsShape(t *testing.T) {
	const n = 50000
	xs := ExponentialInts(nil, n, 1)
	if len(xs) != n {
		t.Fatalf("len = %d", len(xs))
	}
	// Mean should be near n/8; median far below mean (heavy skew).
	var sum float64
	small := 0
	for _, x := range xs {
		sum += float64(x)
		if float64(x) < float64(n)/8 {
			small++
		}
	}
	mean := sum / n
	if mean < float64(n)/16 || mean > float64(n)/4 {
		t.Fatalf("mean = %v, want near %v", mean, float64(n)/8)
	}
	if frac := float64(small) / n; frac < 0.55 || frac > 0.75 {
		t.Fatalf("below-mean fraction = %v, want ~1-1/e", frac)
	}
	// Duplicates must exist (the whole point for dedup/hist).
	seen := map[uint32]bool{}
	dups := 0
	for _, x := range xs {
		if seen[x] {
			dups++
		}
		seen[x] = true
	}
	if dups == 0 {
		t.Fatal("no duplicate keys in exponential input")
	}
}

func TestUniformGenerators(t *testing.T) {
	us := UniformU64(nil, 100, 3)
	if len(us) != 100 {
		t.Fatal("wrong length")
	}
	if us[0] == us[1] && us[1] == us[2] {
		t.Fatal("suspiciously constant")
	}
}

func TestKuzminPointsClustered(t *testing.T) {
	pts := KuzminPoints(nil, 20000, 2)
	if len(pts) != 20000 {
		t.Fatal("wrong length")
	}
	// Kuzmin: half of all points lie within r = sqrt(3) (F(r)=1-1/sqrt(1+r^2)=0.5).
	inner := 0
	for _, p := range pts {
		if !isFinite(p.X) || !isFinite(p.Y) {
			t.Fatalf("non-finite point %+v", p)
		}
		if p.X*p.X+p.Y*p.Y <= 3 {
			inner++
		}
	}
	frac := float64(inner) / float64(len(pts))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("inner fraction = %v, want ~0.5", frac)
	}
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func TestTextAlphabetAndDeterminism(t *testing.T) {
	a := Text(nil, 10000, 4)
	b := Text(nil, 10000, 4)
	if len(a) != 10000 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("text generation not deterministic")
		}
		if a[i] != ' ' && (a[i] < 'a' || a[i] > 'z') {
			t.Fatalf("byte %q outside alphabet", a[i])
		}
	}
	if c := Text(nil, 10000, 5); string(c) == string(a) {
		t.Fatal("different seeds produced identical text")
	}
}

func TestTextHasPlantedRepeat(t *testing.T) {
	n := 32768
	txt := Text(nil, n, 6)
	plen := n / 16
	src, dst := n/8, n/2
	if string(txt[src:src+plen]) != string(txt[dst:dst+plen]) {
		t.Fatal("planted repeat missing")
	}
}

func TestTextTinyAndZero(t *testing.T) {
	if Text(nil, 0, 1) != nil {
		t.Fatal("Text(0) should be nil")
	}
	if got := Text(nil, 3, 1); len(got) != 3 {
		t.Fatalf("Text(3) len = %d", len(got))
	}
}

func TestTextParallelMatchesSequential(t *testing.T) {
	p := core.NewPool(4)
	defer p.Close()
	seq := Text(nil, 20000, 9)
	var par []byte
	p.Do(func(w *core.Worker) { par = Text(w, 20000, 9) })
	if string(seq) != string(par) {
		t.Fatal("parallel text differs from sequential")
	}
}

func TestGeneratorsPropertyDeterministic(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		x := ExponentialInts(nil, n, seed)
		y := ExponentialInts(nil, n, seed)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		p := KuzminPoints(nil, n%100+1, seed)
		q := KuzminPoints(nil, n%100+1, seed)
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
