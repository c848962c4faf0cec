package labelmodel

import (
	"math/rand"
	"testing"
)

// BenchmarkFitGenerativeWide is the worst case for per-pattern posteriors:
// thirty rules over 15,300 sentences, each voting on a random 20% with one
// vote in four negative, so nearly every covered sentence has a vote vector
// of its own.
func BenchmarkFitGenerativeWide(b *testing.B) {
	const n, k = 15300, 30
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(n)
	for j := 0; j < k; j++ {
		votes := make([]Vote, n)
		for id := range votes {
			if rng.Float64() < 0.2 {
				votes[id] = VotePositive
				if rng.Float64() < 0.25 {
					votes[id] = VoteNegative
				}
			}
		}
		m.AddVotes("r", votes)
	}
	b.ReportAllocs()
	for b.Loop() {
		FitGenerative(m, DefaultGenerativeConfig()).Probabilities()
	}
	b.ReportMetric(float64(m.CoverageCount()), "covered")
}
