package bitset

import (
	"math/rand"
	"slices"
	"testing"
)

// oracleEqual checks every Cover accessor of a against the map oracle and
// the dense reference built from the same ids.
func oracleEqual(t *testing.T, a *Adaptive, oracle map[int]bool) {
	t.Helper()
	ids := make([]int, 0, len(oracle))
	for id, ok := range oracle {
		if ok {
			ids = append(ids, id)
		}
	}
	dense := FromSorted(ids)
	if got, want := a.Count(), dense.Count(); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	got := a.AppendTo(nil)
	want := dense.AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendTo lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("AppendTo[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	for _, probe := range []int{-1, 0, 1, 63, 64, 65, ArrayMax, chunkSize - 1, chunkSize, chunkSize + 7, 3 * chunkSize} {
		if a.Contains(probe) != oracle[probe] {
			t.Fatalf("Contains(%d) = %v, want %v", probe, a.Contains(probe), oracle[probe])
		}
	}
}

// kernelEqual checks the fused kernels of a against dense built from the
// same ids, for a given dense operand p and weights w. AndNotSum must be
// bit-identical (exact float equality), not merely close.
func kernelEqual(t *testing.T, a *Adaptive, dense Set, p Set, w []float64) {
	t.Helper()
	if got, want := a.AndCount(p), AndCount(dense, p); got != want {
		t.Fatalf("AndCount = %d, want %d", got, want)
	}
	if got, want := a.AndNotCount(p), AndNotCount(dense, p); got != want {
		t.Fatalf("AndNotCount = %d, want %d", got, want)
	}
	gotSum, gotCount := a.AndNotSum(p, w)
	wantSum, wantCount := AndNotSum(dense, p, w)
	if gotSum != wantSum || gotCount != wantCount {
		t.Fatalf("AndNotSum = (%v, %d), want (%v, %d)", gotSum, gotCount, wantSum, wantCount)
	}
	gotUnion := a.OrInto(New(16))
	wantUnion := Union(New(16), dense)
	if gotUnion.Count() != wantUnion.Count() {
		t.Fatalf("OrInto count = %d, want %d", gotUnion.Count(), wantUnion.Count())
	}
	for i := range wantUnion {
		if i < len(gotUnion) && gotUnion[i] != wantUnion[i] {
			t.Fatalf("OrInto word %d = %x, want %x", i, gotUnion[i], wantUnion[i])
		}
	}
}

func TestAdaptiveRandomOpsVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := NewAdaptive()
	oracle := make(map[int]bool)
	const universe = 3 * chunkSize
	for step := 0; step < 20000; step++ {
		id := rng.Intn(universe)
		if rng.Intn(3) == 0 {
			a.Remove(id)
			delete(oracle, id)
		} else {
			a.Add(id)
			oracle[id] = true
		}
	}
	oracleEqual(t, a, oracle)

	ids := a.AppendTo(nil)
	dense := FromSorted(ids)
	p := New(universe)
	w := make([]float64, universe)
	for i := range w {
		w[i] = rng.Float64()
		if rng.Intn(4) == 0 {
			p.Add(i)
		}
	}
	kernelEqual(t, a, dense, p, w)
}

func TestAdaptivePromotionDemotionBoundary(t *testing.T) {
	a := NewAdaptive()
	// Fill chunk 1 to exactly ArrayMax: must still be an array container.
	base := chunkSize
	for i := 0; i < ArrayMax; i++ {
		a.Add(base + i*3)
	}
	if arrays, bitmaps := a.Containers(); arrays != 1 || bitmaps != 0 {
		t.Fatalf("at ArrayMax: containers = (%d arrays, %d bitmaps), want (1, 0)", arrays, bitmaps)
	}
	arrayBytes := a.Bytes()
	// One more id crosses the threshold: promotion to a bitmap.
	a.Add(base + ArrayMax*3)
	if arrays, bitmaps := a.Containers(); arrays != 0 || bitmaps != 1 {
		t.Fatalf("past ArrayMax: containers = (%d arrays, %d bitmaps), want (0, 1)", arrays, bitmaps)
	}
	if a.Count() != ArrayMax+1 {
		t.Fatalf("Count = %d, want %d", a.Count(), ArrayMax+1)
	}
	// Removing back to ArrayMax demotes to an array again.
	a.Remove(base + ArrayMax*3)
	if arrays, bitmaps := a.Containers(); arrays != 1 || bitmaps != 0 {
		t.Fatalf("after demotion: containers = (%d arrays, %d bitmaps), want (1, 0)", arrays, bitmaps)
	}
	if a.Bytes() != arrayBytes {
		t.Fatalf("Bytes after round trip = %d, want %d", a.Bytes(), arrayBytes)
	}
	// Idempotent adds/removes at the boundary must not corrupt counts.
	a.Add(base)
	a.Remove(base + 1) // absent (ids are multiples of 3)
	if a.Count() != ArrayMax {
		t.Fatalf("Count after no-ops = %d, want %d", a.Count(), ArrayMax)
	}
	// Drain the container entirely: it must disappear.
	for i := 0; i < ArrayMax; i++ {
		a.Remove(base + i*3)
	}
	if arrays, bitmaps := a.Containers(); arrays != 0 || bitmaps != 0 || a.Count() != 0 {
		t.Fatalf("after drain: containers = (%d, %d), count = %d, want empty", arrays, bitmaps, a.Count())
	}
}

// TestAdaptiveFromSortedCrossover builds posting lists whose cardinality
// brackets the crossover and checks AndNotSum bit-identity against dense on
// each, with the p operand shorter, equal and longer than the coverage.
func TestAdaptiveFromSortedCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, card := range []int{0, 1, 63, ArrayMax - 1, ArrayMax, ArrayMax + 1, ArrayMax * 2, chunkSize, chunkSize + ArrayMax} {
		seen := make(map[int]bool, card)
		for len(seen) < card {
			seen[rng.Intn(2*chunkSize)] = true
		}
		ids := make([]int, 0, card)
		for id := range seen {
			ids = append(ids, id)
		}
		// AdaptiveFromSorted requires sorted input (posting lists are sorted).
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		a := AdaptiveFromSorted(ids)
		dense := FromSorted(ids)
		if a.Count() != len(ids) {
			t.Fatalf("card %d: Count = %d", card, a.Count())
		}
		for _, pn := range []int{0, chunkSize / 2, 2 * chunkSize, 3 * chunkSize} {
			p := New(pn)
			w := make([]float64, pn)
			for i := 0; i < pn; i++ {
				w[i] = rng.Float64()
				if rng.Intn(2) == 0 {
					p.Add(i)
				}
			}
			kernelEqual(t, a, dense, p, w)
		}
	}
}

func TestAdaptiveClone(t *testing.T) {
	a := AdaptiveFromSorted([]int{1, 2, 3, chunkSize + 5})
	b := a.Clone()
	b.Add(99)
	b.Remove(1)
	if a.Contains(99) || !a.Contains(1) {
		t.Fatal("Clone is not independent")
	}
	if b.Count() != a.Count() {
		t.Fatalf("clone count = %d, original = %d", b.Count(), a.Count())
	}
}

// FuzzAdaptiveOps drives random op sequences from fuzz input against the map
// oracle, then checks the fused kernels against the dense reference.
func FuzzAdaptiveOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAdaptive()
		oracle := make(map[int]bool)
		for i := 0; i+2 < len(data); i += 3 {
			id := int(data[i+1])<<8 | int(data[i+2])
			// Spread ops across three chunks so both container kinds and the
			// chunk directory get exercised.
			id += int(data[i]&0x03) << chunkBits
			if data[i]&0x04 != 0 {
				a.Remove(id)
				delete(oracle, id)
			} else {
				a.Add(id)
				oracle[id] = true
			}
		}
		ids := a.AppendTo(nil)
		if len(ids) != len(oracle) {
			t.Fatalf("cardinality drifted: %d ids vs %d oracle entries", len(ids), len(oracle))
		}
		prev := -1
		for _, id := range ids {
			if !oracle[id] {
				t.Fatalf("id %d not in oracle", id)
			}
			if id <= prev {
				t.Fatalf("ids out of order: %d after %d", id, prev)
			}
			prev = id
		}
		dense := FromSorted(ids)
		p := New(4 * chunkSize)
		w := make([]float64, 4*chunkSize)
		for i := range w {
			w[i] = float64(i%97) / 97
			if i%3 == 0 {
				p.Add(i)
			}
		}
		gotSum, gotCount := a.AndNotSum(p, w)
		wantSum, wantCount := AndNotSum(dense, p, w)
		if gotSum != wantSum || gotCount != wantCount {
			t.Fatalf("AndNotSum = (%v, %d), want (%v, %d)", gotSum, gotCount, wantSum, wantCount)
		}
		if a.AndCount(p) != AndCount(dense, p) || a.AndNotCount(p) != AndNotCount(dense, p) {
			t.Fatal("And/AndNot counts diverge from dense")
		}
	})
}

// TestAdaptiveAscendingAddMatchesFromSorted drives Add's append path the way
// index builds do — ascending ids across a promotion and into a new chunk,
// with a duplicate and a late smaller id — and compares the result with the
// set built from the sorted ids.
func TestAdaptiveAscendingAddMatchesFromSorted(t *testing.T) {
	var ids []int
	for i := 0; i <= ArrayMax+10; i++ {
		ids = append(ids, i*2)
	}
	for i := 0; i < 50; i++ {
		ids = append(ids, chunkSize+i*7)
	}
	a := NewAdaptive()
	for _, id := range ids {
		a.Add(id)
		a.Add(id)
	}
	a.Add(1)
	want := AdaptiveFromSorted(append([]int{0, 1}, ids[1:]...))
	if !slices.Equal(a.AppendTo(nil), want.AppendTo(nil)) || a.Count() != want.Count() {
		t.Fatalf("ascending adds hold %d ids, want %d", a.Count(), want.Count())
	}
	if arrays, bitmaps := a.Containers(); arrays != 1 || bitmaps != 1 {
		t.Errorf("containers: %d arrays, %d bitmaps; want 1 and 1", arrays, bitmaps)
	}
}
