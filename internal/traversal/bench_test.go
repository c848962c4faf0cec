package traversal

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/tokensregex"
)

// benchFixture builds a synthetic coverage/positives/scores triple shaped
// like the interactive workload: a corpus of n sentences, a rule covering
// covFrac of them, and a positive set of posFrac of them.
func benchFixture(n int, covFrac, posFrac float64, seed int64) (cov []int, pos bitset.Set, scores []float64) {
	rng := rand.New(rand.NewSource(seed))
	scores = make([]float64, n)
	pos = bitset.New(n)
	for i := 0; i < n; i++ {
		scores[i] = rng.Float64()
		if rng.Float64() < covFrac {
			cov = append(cov, i)
		}
		if rng.Float64() < posFrac {
			pos.Add(i)
		}
	}
	return cov, pos, scores
}

// BenchmarkBenefit measures the benefit kernel Σ_{s ∈ C_r \ P} p_s on a rule
// covering ~10% of a 10K-sentence corpus with ~5% discovered positives, the
// rule's coverage held in the default adaptive representation.
func BenchmarkBenefit(b *testing.B) {
	cov, pos, scores := benchFixture(10000, 0.10, 0.05, 1)
	bits := bitset.AdaptiveFromSorted(cov)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		s, _ := bits.AndNotSum(pos, scores)
		sink += s
	}
	_ = sink
}

// BenchmarkAvgBenefit measures the per-instance benefit of a hierarchy
// candidate through the traversal state: node lookup plus one kernel pass.
func BenchmarkAvgBenefit(b *testing.B) {
	cov, pos, scores := benchFixture(10000, 0.10, 0.05, 1)
	heur, err := grammar.NewRegistry(tokensregex.New()).Parse("best way to")
	if err != nil {
		b.Fatal(err)
	}
	ix := index.New()
	h := hierarchy.Build(ix, nil, nil, hierarchy.Config{})
	h.Add(heur, cov)
	st := &State{Hierarchy: h, Index: ix, Positives: pos, Scores: scores}
	key := heur.Key()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += st.AvgBenefitOf(key)
	}
	_ = sink
}
