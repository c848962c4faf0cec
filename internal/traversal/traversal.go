// Package traversal implements the three hierarchy-traversal strategies of
// §3.3–3.6: LocalSearch (Algorithm 3), UniversalSearch (Algorithm 4) and
// HybridSearch (Algorithm 5). A traversal decides which candidate heuristic
// to submit to the oracle next, based on the benefit score
//
//	benefit(r) = Σ_{s ∈ C_r \ P} p_s
//
// where p_s is the classifier's probability that sentence s is positive.
//
// P is a dense bitset and every candidate's coverage is a published
// compressed set, so scoring is one fused and-not-sum pass that accumulates
// in ascending sentence-ID order. A state may carry a Memo of those passes
// for its hierarchy, so picks after a rejected answer (P and scores
// unchanged) read cached benefits instead of re-running the kernel.
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
	// QueriedPos, when set and built for Hierarchy, is Queried over the
	// hierarchy's node positions: PickCandidate tests it instead of hashing
	// each candidate's key into Queried. Its holder keeps the two in step.
	QueriedPos *Marks
	// Memo, when set, caches the benefits of Hierarchy's nodes for this P
	// and these scores; its holder stamps it before handing out the state.
	// A memo stamped for another hierarchy is ignored.
	Memo *Memo
}

// lookup resolves a rule key to its coverage set and |C_r| with one node
// lookup: the hierarchy node for a candidate, the index node otherwise
// (local strategies also walk index-only neighbours). Unknown keys resolve
// to (nil, 0).
func (st *State) lookup(key string) (*bitset.Adaptive, int) {
	if n := st.Hierarchy.Node(key); n != nil {
		return n.Bits, n.Bits.Count()
	}
	if n := st.Index.Node(key); n != nil {
		return n.Bits(), n.Count()
	}
	return nil, 0
}

// BenefitNewOf returns (benefit, |C_r \ P|) for a rule key: from the memo
// when it holds the key, else in one kernel pass.
func (st *State) BenefitNewOf(key string) (float64, int) {
	var ev evals
	return st.eval(key, &ev)
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
// boolean reports whether any eligible candidate exists. Each key costs one
// node lookup and a memo read, or one kernel pass (benefit and new coverage
// together) when the state's memo does not hold it yet. It serves explicit
// key lists, which may name index-only rules (local search's frontier);
// PickCandidate ranks the whole hierarchy by the same rule.
//
//darwin:replaypure
func PickBest(st *State, keys []string, minAvgBenefit float64) (string, bool) {
	var ev evals
	defer ev.publish()
	r := ranking{minAvg: minAvgBenefit}
	for _, key := range keys {
		if st.Queried[key] || key == grammar.RootKey {
			continue
		}
		b, newCov := st.eval(key, &ev)
		r.offer(key, b, newCov)
	}
	return r.best()
}

// PickCandidate is PickBest over every candidate of the state's hierarchy:
// the one max-benefit ranking the universal traversal and the
// multi-annotator workspace share. It walks the nodes by position, reading
// the memo and the queried mask (when the state carries them) by position
// too, so no candidate's key is hashed.
//
//darwin:replaypure
func PickCandidate(st *State, minAvgBenefit float64) (string, bool) {
	var ev evals
	defer ev.publish()
	r := ranking{minAvg: minAvgBenefit}
	h := st.Hierarchy
	mask := st.QueriedPos.For(h)
	root := h.Root()
	for pos, n := range h.Nodes() {
		if n == root {
			continue
		}
		if mask != nil {
			if mask[pos] {
				continue
			}
		} else if st.Queried[n.Key] {
			continue
		}
		b, newCov := st.evalNode(n, &ev)
		r.offer(n.Key, b, newCov)
	}
	return r.best()
}

// ranking is the max-benefit argmax every pick shares: the highest benefit,
// then the higher new coverage, then the smaller key, among candidates that
// add new coverage and whose average benefit exceeds minAvg (when
// positive).
type ranking struct {
	minAvg  float64
	key     string
	benefit float64
	newCov  int
}

// offer ranks one unqueried candidate.
func (r *ranking) offer(key string, b float64, newCov int) {
	if newCov == 0 {
		return
	}
	if r.minAvg > 0 && b/float64(newCov) <= r.minAvg {
		return
	}
	if r.key == "" || b > r.benefit || (b == r.benefit && newCov > r.newCov) ||
		(b == r.benefit && newCov == r.newCov && key < r.key) {
		r.key, r.benefit, r.newCov = key, b, newCov
	}
}

// best returns the winning key, if any candidate was eligible.
func (r *ranking) best() (string, bool) { return r.key, r.key != "" }

// sortedKeys returns the keys of a string set in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
