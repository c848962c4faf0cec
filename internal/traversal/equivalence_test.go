package traversal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
)

// referenceBenefit is the posting-list + map scan of Σ_{s ∈ cov \ P} p_s
// that the kernel replaced, kept as the oracle it must match bit for bit.
func referenceBenefit(cov []int, positives map[int]bool, scores []float64) float64 {
	var b float64
	for _, id := range cov {
		if positives[id] {
			continue
		}
		if id >= 0 && id < len(scores) {
			b += scores[id]
		}
	}
	return b
}

// referenceAvgBenefit is referenceBenefit / |cov \ P| (0 when cov ⊆ P).
func referenceAvgBenefit(cov []int, positives map[int]bool, scores []float64) float64 {
	newCount := 0
	for _, id := range cov {
		if !positives[id] {
			newCount++
		}
	}
	if newCount == 0 {
		return 0
	}
	return referenceBenefit(cov, positives, scores) / float64(newCount)
}

// TestBenefitBitsMatchesReference cross-checks the adaptive kernel against
// the posting-list scan on random sets, including bit-identical float sums.
// (bitset's TestPropertyVsMapOracle checks the dense kernel the same way.)
func TestBenefitBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		var cov []int
		pos := map[int]bool{}
		scores := make([]float64, n)
		for i := 0; i < n; i++ {
			scores[i] = rng.Float64()
			if rng.Intn(3) == 0 {
				cov = append(cov, i)
			}
			if rng.Intn(4) == 0 {
				pos[i] = true
			}
		}
		posBits := bitset.FromMap(pos)
		want, wantAvg := referenceBenefit(cov, pos, scores), referenceAvgBenefit(cov, pos, scores)
		got, newCov := bitset.AdaptiveFromSorted(cov).AndNotSum(posBits, scores)
		if got != want {
			t.Fatalf("trial %d: kernel benefit = %v, reference = %v", trial, got, want)
		}
		gotAvg := 0.0
		if newCov > 0 {
			gotAvg = got / float64(newCov)
		}
		if gotAvg != wantAvg {
			t.Fatalf("trial %d: avg benefit %v != %v", trial, gotAvg, wantAvg)
		}
	}
}

// referencePick is PickBest's argmax spelled out over referenceBenefit: the
// highest benefit, then the higher new coverage, then the smaller key,
// among unqueried keys that add coverage and whose average benefit exceeds
// minAvg (when positive).
func referencePick(st *State, keys []string, minAvg float64) string {
	pos := map[int]bool{}
	st.Positives.Range(func(id int) bool {
		pos[id] = true
		return true
	})
	best, bestB, bestN := "", -1.0, -1
	for _, key := range keys {
		cov, _ := st.lookup(key)
		if st.Queried[key] || key == grammar.RootKey || cov == nil {
			continue
		}
		ids := cov.AppendTo(nil)
		b := referenceBenefit(ids, pos, st.Scores)
		n := 0
		for _, id := range ids {
			if !pos[id] {
				n++
			}
		}
		if n == 0 || (minAvg > 0 && b/float64(n) <= minAvg) {
			continue
		}
		if b > bestB || (b == bestB && n > bestN) || (b == bestB && n == bestN && key < best) {
			best, bestB, bestN = key, b, n
		}
	}
	return best
}

// TestMemoMatchesUncachedPick drives a memo-backed state through random
// sequences of rejects, releases, P growth with and without a new
// hierarchy, and rescoring, stamping the memo the way core.Loop does. After
// every step the memo-backed PickBest must equal the uncached PickBest and
// the map-scan argmax over referenceBenefit, and every key's benefit and
// new coverage must equal the kernel's bit for bit.
func TestMemoMatchesUncachedPick(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, st := buildState(t, 0)
		hcfg := hierarchy.Config{NumCandidates: 200, MaxRuleDepth: 4, MinCoverage: 2, Cleanup: true}
		st.Memo = &Memo{}
		var pVer, sVer uint64
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // reject: the best candidate becomes queried
				if key, ok := PickBest(st, st.Hierarchy.NonRootKeys(), 0); ok {
					st.Queried[key] = true
				}
			case op < 5: // release a queried key
				if queried := sortedKeys(st.Queried); len(queried) > 0 {
					delete(st.Queried, queried[rng.Intn(len(queried))])
				}
			case op < 7: // P grows; half the time the hierarchy is kept
				st.Positives.Add(rng.Intn(c.Len()))
				pVer++
				if rng.Intn(2) == 0 {
					st.Hierarchy = hierarchy.Generate(st.Index, st.Positives, hcfg)
				}
			case op < 9: // a refit rescored some sentences
				for id := range st.Scores {
					if rng.Intn(3) == 0 {
						st.Scores[id] = rng.Float64()
					}
				}
				sVer++
			}
			st.Memo.Stamp(st.Hierarchy, pVer, sVer)
			uncached := *st
			uncached.Memo = nil
			keys := append(append([]string(nil), st.Hierarchy.NonRootKeys()...), st.Index.Children(grammar.RootKey)...)
			for _, minAvg := range []float64{0, MinAvgBenefit} {
				got, _ := PickBest(st, keys, minAvg)
				want, _ := PickBest(&uncached, keys, minAvg)
				if ref := referencePick(st, keys, minAvg); got != want || got != ref {
					t.Fatalf("seed %d step %d minAvg %v: memo pick %q, uncached %q, reference %q", seed, step, minAvg, got, want, ref)
				}
			}
			for _, key := range keys {
				gb, gn := st.BenefitNewOf(key)
				wb, wn := uncached.BenefitNewOf(key)
				if math.Float64bits(gb) != math.Float64bits(wb) || gn != wn {
					t.Fatalf("seed %d step %d %q: memo (%v, %d), kernel (%v, %d)", seed, step, key, gb, gn, wb, wn)
				}
			}
		}
	}
}

// TestPickBestCountsBenefitEvals checks the benefit-evaluation counter: a
// cold memo is filled by kernel passes, the next pick reads every value
// from it, and a state without a memo always runs the kernel.
func TestPickBestCountsBenefitEvals(t *testing.T) {
	_, st := buildState(t, 0)
	keys := st.Hierarchy.NonRootKeys()
	pick := func() (memo, kernel uint64) {
		m0, k0 := memoEvals.Value(), kernelEvals.Value()
		PickBest(st, keys, 0)
		return memoEvals.Value() - m0, kernelEvals.Value() - k0
	}
	cands := uint64(len(keys))
	if m, k := pick(); m != 0 || k != cands {
		t.Errorf("without a memo: %d memo, %d kernel evaluations; want 0, %d", m, k, cands)
	}
	st.Memo = &Memo{}
	st.Memo.Stamp(st.Hierarchy, 0, 0)
	if m, k := pick(); m != 0 || k != cands {
		t.Errorf("cold memo: %d memo, %d kernel evaluations; want 0, %d", m, k, cands)
	}
	if m, k := pick(); m != cands || k != 0 {
		t.Errorf("warm memo: %d memo, %d kernel evaluations; want %d, 0", m, k, cands)
	}
}
