package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
	"repro/internal/traversal"
)

// These tests exercise the §3.8 theoretical model empirically: a classifier
// that assigns positive sentences a score above θ with probability β and
// negative sentences a score above θ with probability β' < β. Under that
// model, Lemma 6 / Theorem 1 say UniversalSearch's benefit ranking prefers
// heuristics whose coverage is within a constant factor of the largest
// available precise heuristic, so the positives identified within a budget
// are a constant-factor approximation of the optimum.

// buildSyntheticHierarchy creates a corpus with several disjoint "cluster"
// rules of different sizes plus noisy rules, and the matching index and
// hierarchy. Each cluster c_i is a token shared by its sentences.
func buildSyntheticHierarchy(t *testing.T, clusterSizes []int, noiseSentences int) (*corpus.Corpus, *traversal.State) {
	t.Helper()
	c := corpus.New("approx", "synthetic")
	for i, size := range clusterSizes {
		token := clusterToken(i)
		for j := 0; j < size; j++ {
			c.Add("the "+token+" sentence number "+clusterToken(j)+" here", corpus.Positive)
		}
	}
	for j := 0; j < noiseSentences; j++ {
		c.Add("generic filler text item "+clusterToken(j%17)+" nothing", corpus.Negative)
	}
	c.Preprocess(corpus.PreprocessOptions{})

	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 2))
	h := hierarchy.Generate(ix, nil, hierarchy.Config{NumCandidates: 2000, MaxRuleDepth: 2, MinCoverage: 2})
	return c, &traversal.State{
		Hierarchy: h,
		Index:     ix,
		Positives: bitset.New(c.Len()),
		Queried:   map[string]bool{},
	}
}

func clusterToken(i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	return "cluster" + string(letters[i%len(letters)]) + string(letters[(i/len(letters))%len(letters)])
}

// scoreModel assigns scores following the (θ, β, β') model.
func scoreModel(c *corpus.Corpus, theta, beta, betaPrime float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, c.Len())
	for id, s := range c.Sentences {
		var high bool
		if s.Gold == corpus.Positive {
			high = rng.Float64() < beta
		} else {
			high = rng.Float64() < betaPrime
		}
		if high {
			scores[id] = theta + rng.Float64()*(1-theta)
		} else {
			scores[id] = rng.Float64() * (1 - theta)
		}
	}
	return scores
}

func TestUniversalSearchConstantApproximation(t *testing.T) {
	// Clusters of decreasing size; the optimal first pick is the largest.
	clusterSizes := []int{60, 40, 25, 15, 10}
	c, st := buildSyntheticHierarchy(t, clusterSizes, 300)

	const theta, beta, betaPrime = 0.6, 0.9, 0.15
	st.Scores = scoreModel(c, theta, beta, betaPrime, 7)

	us := traversal.NewUniversalSearch()
	key, ok := us.Next(st)
	if !ok {
		t.Fatal("UniversalSearch proposed nothing")
	}
	cov := st.Index.Bits(key).AppendTo(nil)
	// The picked rule must cover at least a constant fraction (we use 1/3) of
	// the largest cluster — the empirical counterpart of Lemma 6's
	// |C_r| >= alpha * max |C_r'| guarantee.
	maxCluster := clusterSizes[0]
	if len(cov)*3 < maxCluster {
		t.Errorf("picked rule %q covers %d sentences, want >= %d/3", key, len(cov), maxCluster)
	}
	// And it must be precise: mostly positives (the avg-benefit filter keeps
	// out the noise rules under a better-than-random classifier).
	pos := 0
	for _, id := range cov {
		if c.Sentence(id).Gold == corpus.Positive {
			pos++
		}
	}
	if float64(pos)/float64(len(cov)) < 0.8 {
		t.Errorf("picked rule %q has precision %.2f", key, float64(pos)/float64(len(cov)))
	}
}

func TestUniversalSearchApproximatesGreedyCoverage(t *testing.T) {
	// Run UniversalSearch for b steps under the score model with a perfect
	// oracle simulated inline, and compare the positives found with the
	// greedy maximum-coverage optimum over the same rule set.
	clusterSizes := []int{50, 35, 25, 15, 10, 5}
	c, st := buildSyntheticHierarchy(t, clusterSizes, 400)
	st.Scores = scoreModel(c, 0.6, 0.85, 0.2, 11)

	const budget = 4
	us := traversal.NewUniversalSearch()
	found := map[int]bool{}
	for q := 0; q < budget; q++ {
		key, ok := us.Next(st)
		if !ok {
			break
		}
		st.Queried[key] = true
		cov := st.Index.Bits(key).AppendTo(nil)
		pos := 0
		for _, id := range cov {
			if c.Sentence(id).Gold == corpus.Positive {
				pos++
			}
		}
		accepted := float64(pos)/float64(len(cov)) >= 0.8
		if accepted {
			for _, id := range cov {
				st.Positives.Add(id)
				if c.Sentence(id).Gold == corpus.Positive {
					found[id] = true
				}
			}
		}
		us.Feedback(st, key, accepted)
	}

	// Greedy max-coverage optimum over perfect cluster rules: picking the b
	// largest clusters.
	opt := 0
	for i := 0; i < budget && i < len(clusterSizes); i++ {
		opt += clusterSizes[i]
	}
	if len(found)*3 < opt {
		t.Errorf("UniversalSearch found %d positives in %d queries; greedy optimum %d (want >= 1/3)",
			len(found), budget, opt)
	}
}

func TestScoreModelSeparation(t *testing.T) {
	// Sanity-check the synthetic score model itself: with beta > beta' the
	// mean score of positives exceeds that of negatives.
	c, _ := buildSyntheticHierarchy(t, []int{30, 20}, 200)
	scores := scoreModel(c, 0.5, 0.8, 0.2, 3)
	var posSum, negSum float64
	var nPos, nNeg int
	for id, s := range c.Sentences {
		if s.Gold == corpus.Positive {
			posSum += scores[id]
			nPos++
		} else {
			negSum += scores[id]
			nNeg++
		}
	}
	if posSum/float64(nPos) <= negSum/float64(nNeg) {
		t.Errorf("score model does not separate classes: pos=%.2f neg=%.2f",
			posSum/float64(nPos), negSum/float64(nNeg))
	}
}
