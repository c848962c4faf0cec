// Package labelmodel implements the weak-supervision label aggregation step
// that the paper delegates to Snorkel (§4.5, Table 2): given the labeling
// rules discovered by Darwin, combine their (noisy, overlapping, abstaining)
// votes into per-sentence probabilistic labels and produce a training set for
// a noise-aware classifier.
//
// Two aggregators are provided: a majority-vote baseline and a one-coin
// generative model whose per-rule accuracies are estimated with expectation
// maximization — the textbook formulation of Snorkel's label model for binary
// tasks.
//
// Aggregation must be a pure function of the vote matrix — labeling-job
// re-runs after a crash are byte-compared against the journaled output —
// so darwinlint enforces replay purity for every function in this file:
//
//darwin:replaypure
package labelmodel

import (
	"math"

	"repro/internal/bitset"
)

// Vote is a single labeling-function output for one sentence.
type Vote int8

// Vote values. Abstain means the rule does not cover the sentence.
const (
	VoteNegative Vote = -1
	VoteAbstain  Vote = 0
	VotePositive Vote = 1
)

// Matrix is a label matrix: one row per labeling function (rule), one column
// per sentence.
type Matrix struct {
	numSentences int
	rows         [][]Vote
	names        []string
}

// NewMatrix creates an empty label matrix over numSentences sentences.
func NewMatrix(numSentences int) *Matrix {
	return &Matrix{numSentences: numSentences}
}

// NumSentences returns the number of sentences (columns).
func (m *Matrix) NumSentences() int { return m.numSentences }

// NumRules returns the number of labeling functions (rows).
func (m *Matrix) NumRules() int { return len(m.rows) }

// RuleNames returns the registered rule names.
func (m *Matrix) RuleNames() []string {
	out := make([]string, len(m.names))
	copy(out, m.names)
	return out
}

// AddRule registers a labeling function that votes `vote` on every sentence
// in coverage and abstains elsewhere.
func (m *Matrix) AddRule(name string, coverage []int, vote Vote) {
	row := make([]Vote, m.numSentences)
	for _, id := range coverage {
		if id >= 0 && id < m.numSentences {
			row[id] = vote
		}
	}
	m.rows = append(m.rows, row)
	m.names = append(m.names, name)
}

// AddRuleBits registers a labeling function that votes `vote` on every id in
// the coverage bitset and abstains elsewhere. It is the corpus-scale batch
// path: the row is filled straight from the set bits (no intermediate id
// slice), equivalent to AddRule(name, bits.AppendTo(nil), vote).
func (m *Matrix) AddRuleBits(name string, bits *bitset.Adaptive, vote Vote) {
	row := make([]Vote, m.numSentences)
	bits.Range(func(id int) bool {
		if id < m.numSentences {
			row[id] = vote
		}
		return true
	})
	m.rows = append(m.rows, row)
	m.names = append(m.names, name)
}

// AddVotes registers a labeling function from a pre-computed vote vector.
// The vector is copied; short vectors are zero-padded.
func (m *Matrix) AddVotes(name string, votes []Vote) {
	row := make([]Vote, m.numSentences)
	copy(row, votes)
	m.rows = append(m.rows, row)
	m.names = append(m.names, name)
}

// Votes returns the votes cast on sentence id by all rules.
func (m *Matrix) Votes(id int) []Vote {
	out := make([]Vote, len(m.rows))
	for j, row := range m.rows {
		out[j] = row[id]
	}
	return out
}

// CoverageCount returns how many sentences receive at least one non-abstain
// vote.
func (m *Matrix) CoverageCount() int {
	n := 0
	for id := 0; id < m.numSentences; id++ {
		for _, row := range m.rows {
			if row[id] != VoteAbstain {
				n++
				break
			}
		}
	}
	return n
}

// MajorityVote aggregates the matrix by simple majority: the probabilistic
// label of a sentence is (#positive votes)/(#non-abstain votes); sentences
// with no votes get defaultProb.
func (m *Matrix) MajorityVote(defaultProb float64) []float64 {
	out := make([]float64, m.numSentences)
	for id := 0; id < m.numSentences; id++ {
		pos, total := 0, 0
		for _, row := range m.rows {
			switch row[id] {
			case VotePositive:
				pos++
				total++
			case VoteNegative:
				total++
			}
		}
		if total == 0 {
			out[id] = defaultProb
		} else {
			out[id] = float64(pos) / float64(total)
		}
	}
	return out
}

// GenerativeConfig controls EM training of the generative label model.
type GenerativeConfig struct {
	// Iterations is the number of EM rounds.
	Iterations int
	// PriorPositive is the prior probability that a sentence is positive.
	PriorPositive float64
	// InitialAccuracy is the starting accuracy of every rule.
	InitialAccuracy float64
	// PriorStrength is the pseudo-count of the Beta prior centred at
	// InitialAccuracy used when re-estimating rule accuracies. It keeps
	// accuracies of rules with little corroborating overlap near the prior
	// and damps the self-confirmation runaway that one-sided (positive /
	// abstain) label matrices are prone to.
	PriorStrength float64
}

// DefaultGenerativeConfig returns sensible EM settings.
func DefaultGenerativeConfig() GenerativeConfig {
	return GenerativeConfig{Iterations: 20, PriorPositive: 0.5, InitialAccuracy: 0.7, PriorStrength: 10}
}

// GenerativeModel is the trained one-coin label model: each rule j has an
// estimated accuracy; the posterior of a sentence combines the votes weighted
// by the rules' accuracies.
type GenerativeModel struct {
	Accuracies []float64
	Prior      float64
	patterns   *votePatterns
}

// FitGenerative trains the one-coin generative model with EM.
//
// Accuracies only change between iterations, so each iteration takes the
// prior's logs and log(a_j), log(1-a_j) once per rule rather than once per
// vote, and each rule's M-step walks only the sentences that rule votes on
// (its ascending covered ids, built once) rather than the whole corpus. A
// posterior depends on a sentence only through its vote vector, so the
// leave-one-out posterior is computed once per (vote pattern, excluded rule)
// per iteration and reused for every sentence sharing the pattern. Every sum
// still adds the same terms in the same order, so the accuracies are
// bit-identical to the per-vote-log, per-sentence textbook form.
func FitGenerative(m *Matrix, cfg GenerativeConfig) *GenerativeModel {
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
	covered := make([][]int32, k)
	for j, row := range m.rows {
		for id, v := range row {
			if v != VoteAbstain {
				covered[j] = append(covered[j], int32(id))
			}
		}
	}
	pats := newVotePatterns(m, covered)
	model := &GenerativeModel{Accuracies: acc, Prior: cfg.PriorPositive, patterns: pats}

	// memo[p] holds rule j's agreement with pattern p's leave-j-out
	// posterior; it is valid for the (iteration, rule) whose tick is in
	// stamp[p].
	memo := make([]float64, pats.len())
	stamp := make([]int, pats.len())
	tick := 0
	for it := 0; it < cfg.Iterations; it++ {
		// M-step with leave-one-out E-step: rule j's accuracy is re-estimated
		// against the posterior computed from the OTHER rules' votes only
		// (preventing self-confirmation), regularized toward the prior
		// accuracy with PriorStrength pseudo-counts so rules with little
		// corroborating overlap keep an informative accuracy instead of
		// collapsing to 0.5.
		logs := model.logs()
		next := make([]float64, k)
		copy(next, acc)
		for j, row := range m.rows {
			tick++
			var agree, total float64
			for _, id := range covered[j] {
				p := pats.of[id]
				if stamp[p] != tick {
					post := logs.posterior(pats.votes(p), j)
					if row[id] == VotePositive {
						memo[p] = post
					} else {
						memo[p] = 1 - post
					}
					stamp[p] = tick
				}
				agree += memo[p]
				total++
			}
			if total > 0 {
				a := (agree + cfg.InitialAccuracy*cfg.PriorStrength) / (total + cfg.PriorStrength)
				// Clamp away from 0/1 to keep the model stable.
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
	return model
}

// votePatterns groups sentences by vote vector. Pattern 0 is the
// all-abstain vector, shared by every sentence no rule votes on; the other
// patterns are numbered in order of their first sentence. A pattern keeps
// only its non-abstain votes, in ascending rule order, so a posterior over
// it adds the same terms in the same order as one over the full vector.
type votePatterns struct {
	// of maps a sentence id to its pattern.
	of []int32
	// ends delimits the patterns' votes: pattern p's are
	// list[ends[p-1]:ends[p]], and pattern 0 has none.
	ends []int32
	list []patternVote
}

// patternVote is one non-abstain vote of a pattern.
type patternVote struct {
	rule int32
	vote Vote
}

// newVotePatterns assigns patterns from the rules' ascending covered ids.
// Rule by rule, each covered sentence moves from its pattern-so-far to that
// pattern's child for (rule, vote), so two sentences share a pattern iff
// their vote vectors are equal. Building touches each vote once.
func newVotePatterns(m *Matrix, covered [][]int32) *votePatterns {
	// The pattern trie: node 0 is the empty prefix; node x extends
	// parent[x] with the vote last[x]. child[2x+b] is x's child for a
	// positive (b=1) or negative (b=0) vote of the rule whose tick is in
	// childTick[2x+b]. Each vote adds at most one node.
	votes := 0
	for _, ids := range covered {
		votes += len(ids)
	}
	parent := make([]int32, 1, votes+1)
	last := make([]patternVote, 1, votes+1)
	child := make([]int32, 2*(votes+1))
	childTick := make([]int32, 2*(votes+1))
	node := make([]int32, m.numSentences)
	for j, ids := range covered {
		row := m.rows[j]
		for _, id := range ids {
			slot := 2 * int(node[id])
			if row[id] == VotePositive {
				slot++
			}
			if childTick[slot] != int32(j+1) {
				child[slot] = int32(len(parent))
				childTick[slot] = int32(j + 1)
				parent = append(parent, node[id])
				last = append(last, patternVote{rule: int32(j), vote: row[id]})
			}
			node[id] = child[slot]
		}
	}
	// Number the final patterns densely and spell out their votes.
	// A pattern's votes are those of its first sentence, so the lists
	// together hold at most every vote.
	pats := &votePatterns{of: node, ends: []int32{0}, list: make([]patternVote, 0, votes)}
	dense := make([]int32, len(parent))
	for x := range dense {
		dense[x] = -1
	}
	dense[0] = 0
	var path []patternVote
	for id, x := range node {
		if dense[x] < 0 {
			dense[x] = int32(len(pats.ends))
			path = path[:0]
			for y := x; y > 0; y = parent[y] {
				path = append(path, last[y])
			}
			for i := len(path) - 1; i >= 0; i-- {
				pats.list = append(pats.list, path[i])
			}
			pats.ends = append(pats.ends, int32(len(pats.list)))
		}
		pats.of[id] = dense[x]
	}
	return pats
}

// len returns the number of patterns.
func (vp *votePatterns) len() int { return len(vp.ends) }

// votes returns pattern p's non-abstain votes in ascending rule order.
func (vp *votePatterns) votes(p int32) []patternVote {
	if p == 0 {
		return nil
	}
	return vp.list[vp.ends[p-1]:vp.ends[p]]
}

// accuracyLogs holds log(a) and log(1-a) for an accuracy a: the terms a
// vote adds to the log-likelihood of the class it agrees and disagrees with.
type accuracyLogs struct{ right, wrong float64 }

func logsOf(a float64) accuracyLogs {
	return accuracyLogs{right: math.Log(a), wrong: math.Log(1 - a)}
}

// posteriorLogs caches every log a posterior sums. The prior enters like a
// positive vote whose accuracy is Prior.
type posteriorLogs struct {
	prior accuracyLogs
	rules []accuracyLogs
}

// logs takes the logs of the current Prior and Accuracies.
func (g *GenerativeModel) logs() posteriorLogs {
	l := posteriorLogs{prior: logsOf(g.Prior), rules: make([]accuracyLogs, len(g.Accuracies))}
	for j, a := range g.Accuracies {
		l.rules[j] = logsOf(a)
	}
	return l
}

// posterior computes P(y=1 | votes) under the one-coin model, ignoring rule
// `exclude`'s vote (pass -1 to use every vote).
func (l *posteriorLogs) posterior(votes []patternVote, exclude int) float64 {
	logPos := l.prior.right
	logNeg := l.prior.wrong
	for _, v := range votes {
		if int(v.rule) == exclude {
			continue
		}
		r := l.rules[v.rule]
		if v.vote == VotePositive {
			logPos += r.right
			logNeg += r.wrong
		} else {
			logPos += r.wrong
			logNeg += r.right
		}
	}
	// Normalize in log space.
	maxLog := logPos
	if logNeg > maxLog {
		maxLog = logNeg
	}
	p := math.Exp(logPos - maxLog)
	n := math.Exp(logNeg - maxLog)
	return p / (p + n)
}

// Probabilities returns the posterior positive probability of every
// sentence, computed once per vote pattern: every sentence no rule votes on
// shares the all-abstain posterior.
func (g *GenerativeModel) Probabilities() []float64 {
	logs := g.logs()
	post := make([]float64, g.patterns.len())
	for p := range post {
		post[p] = logs.posterior(g.patterns.votes(int32(p)), -1)
	}
	out := make([]float64, len(g.patterns.of))
	for id, p := range g.patterns.of {
		out[id] = post[p]
	}
	return out
}

// TrainingSet converts probabilistic labels into a hard-labeled training set:
// sentences with probability >= posThreshold become positive examples,
// sentences with probability <= negThreshold become negatives, the rest are
// dropped. It returns parallel slices of sentence IDs and labels (1/0).
func TrainingSet(probs []float64, posThreshold, negThreshold float64) (ids []int, labels []int) {
	for id, p := range probs {
		switch {
		case p >= posThreshold:
			ids = append(ids, id)
			labels = append(labels, 1)
		case p <= negThreshold:
			ids = append(ids, id)
			labels = append(labels, 0)
		}
	}
	return ids, labels
}
