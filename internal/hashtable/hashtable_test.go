package hashtable

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// setKeys counts a quiescent set's keys slot by slot: a key stored in
// two slots counts twice.
func setKeys(s *Set) map[uint64]int {
	keys := map[uint64]int{}
	for i := 0; i < s.Capacity(); i++ {
		if k, ok := s.SlotKey(i); ok {
			keys[k]++
		}
	}
	return keys
}

// mapCounts reads a quiescent count map's counters slot by slot; a key
// stored in two slots fails the test that reads it.
func mapCounts(t *testing.T, m *CountMap) map[uint64]int64 {
	counts := map[uint64]int64{}
	for i := 0; i < m.Capacity(); i++ {
		if k, c, ok := m.Slot(i); ok {
			if _, dup := counts[k]; dup {
				t.Errorf("key %d stored twice", k)
			}
			counts[k] = c
		}
	}
	return counts
}

func TestSetInsertContains(t *testing.T) {
	s := NewSet(100)
	if !s.Insert(42) {
		t.Fatal("first insert should succeed")
	}
	if s.Insert(42) {
		t.Fatal("second insert should report present")
	}
	if keys := setKeys(s); keys[42] != 1 || len(keys) != 1 {
		t.Fatalf("keys = %v, want 42 once", keys)
	}
}

func TestSetZeroKeyUsable(t *testing.T) {
	s := NewSet(10)
	if !s.Insert(0) {
		t.Fatal("key 0 insert failed")
	}
	if setKeys(s)[0] != 1 {
		t.Fatal("key 0 not found")
	}
	if s.Insert(0) {
		t.Fatal("key 0 duplicate inserted")
	}
}

func TestSetKeysRoundTrip(t *testing.T) {
	s := NewSet(64)
	want := []uint64{0, 1, 5, 1 << 40, ^uint64(1)}
	for _, k := range want {
		s.Insert(k)
	}
	var got []uint64
	for i := 0; i < s.Capacity(); i++ {
		if k, ok := s.SlotKey(i); ok {
			got = append(got, k)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestSetSlotKeyEnumeration(t *testing.T) {
	s := NewSet(8)
	s.Insert(7)
	found := false
	for i := 0; i < s.Capacity(); i++ {
		if k, ok := s.SlotKey(i); ok && k == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("slot enumeration missed key")
	}
}

// LiveMask must agree with SlotKey bit for bit, on full words and on a
// short final word, and drive core.PackMaskInto to the occupied slots.
func TestSetLiveMaskMatchesSlotKey(t *testing.T) {
	s := NewSet(100)
	for k := uint64(0); k < 100; k++ {
		s.Insert(k * k)
	}
	var want []int32
	for lo := 0; lo < s.Capacity(); lo += 50 {
		hi := min(lo+50, s.Capacity())
		m := s.LiveMask(lo, hi)
		for i := lo; i < hi; i++ {
			_, ok := s.SlotKey(i)
			if ok != (m>>uint(i-lo)&1 == 1) {
				t.Fatalf("slot %d: SlotKey says %v, LiveMask(%d, %d) = %#x", i, ok, lo, hi, m)
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		if m>>uint(hi-lo) != 0 {
			t.Fatalf("LiveMask(%d, %d) = %#x sets bits past its range", lo, hi, m)
		}
	}
	got := core.PackMaskInto(nil, s.Capacity(), s.LiveMask, nil)
	if len(got) != 100 || len(want) != 100 {
		t.Fatalf("packed %d live slots, enumerated %d, want 100", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packed slot %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSetConcurrentInsertExactDedup(t *testing.T) {
	const n = 30000
	s := NewSet(n)
	p := core.NewPool(4)
	defer p.Close()
	// Insert each of n/3 keys three times, concurrently; exactly one
	// insert per key must win.
	var wins int64
	p.Do(func(w *core.Worker) {
		wins = core.MapReduce(w, n, int64(0), func(i int) int64 {
			if s.Insert(uint64(i % (n / 3))) {
				return 1
			}
			return 0
		}, func(a, b int64) int64 { return a + b })
	})
	if wins != n/3 {
		t.Fatalf("winning inserts = %d, want %d", wins, n/3)
	}
	if keys := setKeys(s); len(keys) != n/3 {
		t.Fatalf("len = %d, want %d", len(keys), n/3)
	}
}

func TestSetMatchesMapProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewSet(len(keys) + 1)
		ref := map[uint64]bool{}
		for _, k := range keys {
			if s.Insert(k) != !ref[k] {
				return false
			}
			ref[k] = true
		}
		got := setKeys(s)
		for k, c := range got {
			if c != 1 || !ref[k] {
				return false
			}
		}
		return len(got) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMapBasics(t *testing.T) {
	m := NewCountMap(10)
	m.InsertAdd(5, 2)
	m.InsertAdd(5, 3)
	m.InsertAdd(0, 1)
	if got := mapCounts(t, m); got[5] != 5 || got[0] != 1 || len(got) != 2 {
		t.Fatalf("counts = %v, want 5:5 0:1", got)
	}
}

func TestCountMapConcurrentTotals(t *testing.T) {
	const n = 60000
	const distinct = 256
	m := NewCountMap(distinct)
	p := core.NewPool(4)
	defer p.Close()
	p.Do(func(w *core.Worker) {
		core.ForRange(w, 0, n, 0, func(i int) {
			m.InsertAdd(uint64(i%distinct), 1)
		})
	})
	if got := len(mapCounts(t, m)); got != distinct {
		t.Fatalf("distinct = %d, want %d", got, distinct)
	}
	var total int64
	for i := 0; i < m.Capacity(); i++ {
		if k, c, ok := m.Slot(i); ok {
			total += c
			want := int64(n / distinct)
			if k < uint64(n%distinct) {
				want++
			}
			if c != want {
				t.Fatalf("slot count for key %d = %d, want %d", k, c, want)
			}
		}
	}
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
}

func TestCountMapMatchesMapProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		m := NewCountMap(260)
		ref := map[uint64]int64{}
		for _, k := range keys {
			m.InsertAdd(uint64(k), 1)
			ref[uint64(k)]++
		}
		got := mapCounts(t, m)
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return len(got) == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityPowerOfTwoAndRoomy(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		s := NewSet(n)
		c := s.Capacity()
		if c&(c-1) != 0 {
			t.Fatalf("capacity %d not a power of two", c)
		}
		if c < 2*n {
			t.Fatalf("capacity %d too small for %d keys", c, n)
		}
	}
}

func BenchmarkSetInsert(b *testing.B) {
	s := NewSet(b.N + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(uint64(i))
	}
}
