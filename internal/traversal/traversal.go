// Package traversal implements the three hierarchy-traversal strategies of
// §3.3–3.6: LocalSearch (Algorithm 3), UniversalSearch (Algorithm 4) and
// HybridSearch (Algorithm 5). A traversal decides which candidate heuristic
// to submit to the oracle next, based on the benefit score
//
//	benefit(r) = Σ_{s ∈ C_r \ P} p_s
//
// where p_s is the classifier's probability that sentence s is positive.
//
// P is a dense bitset and every candidate's coverage is a published kernel
// set, so scoring is one fused and-not-sum pass that accumulates in ascending
// sentence-ID order.
package traversal

import (
	"sort"

	"repro/internal/bitset"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
)

// State is the shared, mutable view of the discovery loop that traversals
// read: the current hierarchy, the index, the set of discovered positives,
// the classifier scores, and the set of already-queried rule keys.
type State struct {
	Hierarchy *hierarchy.Hierarchy
	Index     *index.Index
	// Positives is the discovered positive set P, sized to the corpus.
	Positives bitset.Set
	// Scores holds p_s for every sentence (indexed by sentence ID).
	Scores []float64
	// Queried marks rule keys already submitted to the oracle.
	Queried map[string]bool
}

// lookup resolves a rule key to its coverage set and |C_r| with one node
// lookup: the hierarchy node for a candidate, the index node otherwise
// (local strategies also walk index-only neighbours). Unknown keys resolve
// to (nil, 0).
func (st *State) lookup(key string) (bitset.Cover, int) {
	if n := st.Hierarchy.Node(key); n != nil {
		return n.Bits, n.Bits.Count()
	}
	if n := st.Index.Node(key); n != nil {
		return n.Bits(), n.Count()
	}
	return nil, 0
}

// score returns (benefit, |C_r \ P|) for a resolved coverage set in one
// kernel pass; a nil set scores (0, 0).
func (st *State) score(cov bitset.Cover) (float64, int) {
	if cov == nil {
		return 0, 0
	}
	return cov.AndNotSum(st.Positives, st.Scores)
}

// BenefitNewOf returns (benefit, |C_r \ P|) for a rule key in one kernel
// pass.
func (st *State) BenefitNewOf(key string) (float64, int) {
	cov, _ := st.lookup(key)
	return st.score(cov)
}

// BenefitOf scores a rule key against the state.
func (st *State) BenefitOf(key string) float64 {
	b, _ := st.BenefitNewOf(key)
	return b
}

// AvgBenefitOf returns the per-instance benefit of a rule key: benefit /
// |C_r \ P|, or 0 when the rule adds nothing.
func (st *State) AvgBenefitOf(key string) float64 {
	b, newCov := st.BenefitNewOf(key)
	if newCov == 0 {
		return 0
	}
	return b / float64(newCov)
}

// Traversal selects the next candidate heuristic to submit to the oracle.
type Traversal interface {
	// Name identifies the strategy ("local", "universal", "hybrid").
	Name() string
	// Next returns the key of the next rule to query, or false if the
	// strategy has no candidate to propose.
	Next(st *State) (string, bool)
	// Feedback informs the strategy of the oracle's answer for a rule it
	// proposed.
	Feedback(st *State, key string, accepted bool)
	// Reseed registers an accepted seed rule (or any externally accepted
	// rule) so local strategies can explore around it.
	Reseed(st *State, key string)
}

// PickBest returns the unqueried key with the highest benefit, breaking
// ties by higher new coverage then lexicographic key for determinism, among
// keys whose average benefit exceeds minAvgBenefit (when positive). The
// boolean reports whether any eligible candidate exists. It is the one
// max-benefit ranking every consumer shares: the traversals and the
// multi-annotator workspace. Each candidate costs one node lookup and one
// kernel pass (benefit and new coverage together).
//
//darwin:replaypure
func PickBest(st *State, keys []string, minAvgBenefit float64) (string, bool) {
	bestKey := ""
	bestBenefit := -1.0
	bestNew := -1
	for _, key := range keys {
		if st.Queried[key] || key == grammar.RootKey {
			continue
		}
		cov, n := st.lookup(key)
		if n == 0 {
			continue
		}
		b, newCov := st.score(cov)
		if newCov == 0 {
			continue
		}
		if minAvgBenefit > 0 && b/float64(newCov) <= minAvgBenefit {
			continue
		}
		if b > bestBenefit || (b == bestBenefit && newCov > bestNew) ||
			(b == bestBenefit && newCov == bestNew && (bestKey == "" || key < bestKey)) {
			bestKey, bestBenefit, bestNew = key, b, newCov
		}
	}
	return bestKey, bestKey != ""
}

// sortedKeys returns the keys of a string set in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
