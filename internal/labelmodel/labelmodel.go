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
	matrix     *Matrix
}

// FitGenerative trains the one-coin generative model with EM.
//
// Accuracies only change between iterations, so each iteration takes the
// prior's logs and log(a_j), log(1-a_j) once per rule rather than once per
// vote, and each rule's M-step walks only the sentences that rule votes on
// (its ascending covered ids, built once) rather than the whole corpus.
// Every sum still adds the same terms in the same order, so the accuracies
// are bit-identical to the per-vote-log textbook form.
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
	model := &GenerativeModel{Accuracies: acc, Prior: cfg.PriorPositive, matrix: m}
	covered := make([][]int32, k)
	for j, row := range m.rows {
		for id, v := range row {
			if v != VoteAbstain {
				covered[j] = append(covered[j], int32(id))
			}
		}
	}

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
			var agree, total float64
			for _, id := range covered[j] {
				p := model.posteriorExcluding(&logs, int(id), j)
				if row[id] == VotePositive {
					agree += p
				} else {
					agree += 1 - p
				}
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

// posteriorExcluding computes P(y=1 | votes on sentence id) under the
// one-coin model, ignoring rule `exclude`'s vote (pass -1 to use every
// vote). logs must hold the current model's logs.
func (g *GenerativeModel) posteriorExcluding(logs *posteriorLogs, id, exclude int) float64 {
	logPos := logs.prior.right
	logNeg := logs.prior.wrong
	for j, row := range g.matrix.rows {
		if j == exclude {
			continue
		}
		switch row[id] {
		case VotePositive:
			logPos += logs.rules[j].right
			logNeg += logs.rules[j].wrong
		case VoteNegative:
			logPos += logs.rules[j].wrong
			logNeg += logs.rules[j].right
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

// Probabilities returns the posterior positive probability of every sentence.
func (g *GenerativeModel) Probabilities() []float64 {
	logs := g.logs()
	out := make([]float64, g.matrix.numSentences)
	for id := range out {
		out[id] = g.posteriorExcluding(&logs, id, -1)
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
