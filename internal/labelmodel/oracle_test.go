package labelmodel

import (
	"math"
	"math/rand"
	"testing"
)

// oracleFit is the reference one-coin EM: the textbook form that takes two
// logs per vote, for every rule, sentence and iteration, and scans every
// sentence of every rule. FitGenerative must reproduce its accuracies bit
// for bit.
func oracleFit(m *Matrix, cfg GenerativeConfig) []float64 {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20
	}
	if cfg.PriorPositive <= 0 || cfg.PriorPositive >= 1 {
		cfg.PriorPositive = 0.5
	}
	if cfg.InitialAccuracy <= 0.5 || cfg.InitialAccuracy >= 1 {
		cfg.InitialAccuracy = 0.7
	}
	k := m.NumRules()
	acc := make([]float64, k)
	for j := range acc {
		acc[j] = cfg.InitialAccuracy
	}
	for it := 0; it < cfg.Iterations; it++ {
		next := make([]float64, k)
		copy(next, acc)
		for j, row := range m.rows {
			var agree, total float64
			for id := 0; id < m.numSentences; id++ {
				if row[id] == VoteAbstain {
					continue
				}
				p := oraclePosterior(m, acc, cfg.PriorPositive, id, j)
				if row[id] == VotePositive {
					agree += p
				} else {
					agree += 1 - p
				}
				total++
			}
			if total > 0 {
				a := (agree + cfg.InitialAccuracy*cfg.PriorStrength) / (total + cfg.PriorStrength)
				if a < 0.05 {
					a = 0.05
				}
				if a > 0.95 {
					a = 0.95
				}
				next[j] = a
			}
		}
		copy(acc, next)
	}
	return acc
}

// oraclePosterior is P(y=1 | votes on id) ignoring rule exclude's vote (-1
// keeps every vote), with both logs taken per vote.
func oraclePosterior(m *Matrix, acc []float64, prior float64, id, exclude int) float64 {
	logPos := math.Log(prior)
	logNeg := math.Log(1 - prior)
	for j, row := range m.rows {
		if j == exclude {
			continue
		}
		a := acc[j]
		switch row[id] {
		case VotePositive:
			logPos += math.Log(a)
			logNeg += math.Log(1 - a)
		case VoteNegative:
			logPos += math.Log(1 - a)
			logNeg += math.Log(a)
		}
	}
	maxLog := logPos
	if logNeg > maxLog {
		maxLog = logNeg
	}
	p := math.Exp(logPos - maxLog)
	n := math.Exp(logNeg - maxLog)
	return p / (p + n)
}

// TestFitGenerativeMatchesOracleBits holds FitGenerative's accuracies and
// Probabilities to the per-vote-log oracle bit for bit, on seeded random
// matrices with negative votes, all-abstain rules, uncovered sentences and
// single-rule committees.
func TestFitGenerativeMatchesOracleBits(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(8)
		if trial%5 == 0 {
			k = 1
		}
		m := NewMatrix(n)
		for j := 0; j < k; j++ {
			votes := make([]Vote, n)
			if j != 1 || trial%3 != 0 { // every third trial keeps rule 1 all-abstain
				density := rng.Float64()
				negShare := rng.Float64() * 0.6
				for id := range votes {
					if rng.Float64() < density {
						votes[id] = VotePositive
						if rng.Float64() < negShare {
							votes[id] = VoteNegative
						}
					}
				}
			}
			m.AddVotes("r", votes)
		}
		cfg := DefaultGenerativeConfig()
		cfg.Iterations = 1 + rng.Intn(25)
		cfg.PriorPositive = 0.05 + 0.9*rng.Float64()
		cfg.PriorStrength = 20 * rng.Float64()

		g := FitGenerative(m, cfg)
		want := oracleFit(m, cfg)
		for j := range want {
			if math.Float64bits(g.Accuracies[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (n=%d k=%d): accuracy[%d] = %v, oracle %v", trial, n, k, j, g.Accuracies[j], want[j])
			}
		}
		probs := g.Probabilities()
		for id, p := range probs {
			if o := oraclePosterior(m, want, g.Prior, id, -1); math.Float64bits(p) != math.Float64bits(o) {
				t.Fatalf("trial %d (n=%d k=%d): posterior(%d) = %v, oracle %v", trial, n, k, id, p, o)
			}
		}
	}
}
