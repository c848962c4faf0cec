package traversal

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
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
