package labelmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// The corpus-scale batch pipeline (internal/autolabel) feeds matrices with
// shapes the interactive path never produced: sentences no rule covers,
// single-rule committees, and rules whose coverage is empty after dataset
// filtering. These tests pin the aggregators' behavior on those shapes.

func TestGenerativeZeroCoverageSentences(t *testing.T) {
	m := NewMatrix(6)
	m.AddRule("a", []int{0, 1}, VotePositive)
	m.AddRule("b", []int{1, 2}, VotePositive)
	// Sentences 3-5 receive no votes at all.
	cfg := DefaultGenerativeConfig()
	cfg.PriorPositive = 0.3
	probs := FitGenerative(m, cfg).Probabilities()
	for id := 3; id < 6; id++ {
		if math.Abs(probs[id]-0.3) > 1e-12 {
			t.Errorf("uncovered sentence %d: posterior %f, want the prior 0.3", id, probs[id])
		}
	}
	for id := 0; id < 3; id++ {
		if probs[id] <= 0.3 {
			t.Errorf("covered sentence %d: posterior %f did not move above the prior", id, probs[id])
		}
	}
	if probs2 := m.MajorityVote(0.3); probs2[4] != 0.3 {
		t.Errorf("majority default = %f, want 0.3", probs2[4])
	}
}

func TestGenerativeSingleRuleMatrix(t *testing.T) {
	m := NewMatrix(4)
	m.AddRule("only", []int{0, 2}, VotePositive)
	g := FitGenerative(m, DefaultGenerativeConfig())
	// Leave-one-out: the lone rule is judged against the prior alone, so its
	// accuracy is pulled toward the Beta prior but must stay above chance.
	if len(g.Accuracies) != 1 || g.Accuracies[0] <= 0.5 || g.Accuracies[0] > 0.95 {
		t.Fatalf("single-rule accuracy = %v", g.Accuracies)
	}
	probs := g.Probabilities()
	if probs[0] <= 0.5 || probs[2] <= 0.5 {
		t.Errorf("covered sentences not positive: %v", probs)
	}
	if probs[1] != 0.5 || probs[3] != 0.5 {
		t.Errorf("uncovered sentences moved off the prior: %v", probs)
	}
}

func TestGenerativeAllAbstainRow(t *testing.T) {
	m := NewMatrix(4)
	m.AddRule("live", []int{0, 1}, VotePositive)
	m.AddRule("dead", nil, VotePositive) // covers nothing: every vote abstains
	cfg := DefaultGenerativeConfig()
	g := FitGenerative(m, cfg)
	// A row with no votes has nothing to re-estimate from; it must keep the
	// initial accuracy rather than collapse to 0 or NaN.
	if g.Accuracies[1] != cfg.InitialAccuracy {
		t.Errorf("all-abstain rule accuracy = %f, want initial %f", g.Accuracies[1], cfg.InitialAccuracy)
	}
	for id, p := range g.Probabilities() {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("posterior(%d) = %f with an all-abstain row", id, p)
		}
	}
}

func TestAddRuleBitsMatchesAddRule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 100
	var ids []int
	for id := 0; id < n; id++ {
		if rng.Intn(3) == 0 {
			ids = append(ids, id)
		}
	}
	a := NewMatrix(n)
	a.AddRule("r", ids, VoteNegative)
	b := NewMatrix(n)
	b.AddRuleBits("r", bitset.AdaptiveFromSorted(ids), VoteNegative)
	for id := 0; id < n; id++ {
		if a.Votes(id)[0] != b.Votes(id)[0] {
			t.Fatalf("sentence %d: AddRule vote %d != AddRuleBits vote %d", id, a.Votes(id)[0], b.Votes(id)[0])
		}
	}
	// Bits beyond the matrix width are ignored, mirroring AddRule's range
	// check.
	c := NewMatrix(4)
	c.AddRuleBits("wide", bitset.AdaptiveFromSorted([]int{1, 9, 15}), VotePositive)
	if got := c.CoverageCount(); got != 1 {
		t.Errorf("out-of-range bits leaked into coverage: %d", got)
	}
}

// TestMajorityGenerativeAgreement is the seeded synthetic-matrix property:
// when a committee of decent rules (accuracy well above chance) votes on a
// known ground truth, the majority-vote and generative aggregators must agree
// on the hard label of almost every covered, non-tied sentence — the
// generative model refines confidences, it does not flip a committee it has
// no evidence against.
func TestMajorityGenerativeAgreement(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 200
		truth := make([]bool, n)
		for id := range truth {
			truth[id] = rng.Intn(2) == 0
		}
		m := NewMatrix(n)
		numRules := 3 + rng.Intn(5)
		for r := 0; r < numRules; r++ {
			ruleAcc := 0.75 + 0.2*rng.Float64()
			var votes []Vote
			for id := 0; id < n; id++ {
				v := VoteAbstain
				if rng.Float64() < 0.4 { // each rule covers ~40% of the corpus
					correct := rng.Float64() < ruleAcc
					if truth[id] == correct {
						v = VotePositive
					} else {
						v = VoteNegative
					}
				}
				votes = append(votes, v)
			}
			m.AddVotes("r", votes)
		}

		maj := m.MajorityVote(0.5)
		gen := FitGenerative(m, DefaultGenerativeConfig()).Probabilities()
		agree, considered := 0, 0
		for id := 0; id < n; id++ {
			if maj[id] == 0.5 { // uncovered or tied: no majority signal
				continue
			}
			considered++
			if (maj[id] > 0.5) == (gen[id] > 0.5) {
				agree++
			}
		}
		if considered == 0 {
			t.Fatalf("seed %d: no covered sentences", seed)
		}
		if rate := float64(agree) / float64(considered); rate < 0.9 {
			t.Errorf("seed %d: aggregators agree on only %.0f%% of %d decided sentences",
				seed, rate*100, considered)
		}
	}
}
