// Package core implements the end-to-end Darwin engine of Algorithm 1: index
// construction, iterative hierarchy generation, traversal, oracle querying and
// score updates, producing a set of accepted labeling rules, the discovered
// positive set, and a trained classifier.
package core

import (
	"repro/internal/classifier"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/tokensregex"
	"repro/internal/traversal"
	"repro/internal/treematch"
)

// Config controls a Darwin engine.
type Config struct {
	// Grammars are the heuristic grammars to use. Nil defaults to
	// TokensRegex + TreeMatch, the paper's default pair.
	Grammars []grammar.Grammar
	// UseParseTrees enables dependency parsing during preprocessing. It is
	// forced on when the TreeMatch grammar is present.
	UseParseTrees bool

	// SketchDepth bounds the derivation-sketch depth (paper: 10; phrase
	// grammars rarely need more than 5-6).
	SketchDepth int
	// MaxRuleDepth bounds the depth of candidate rules.
	MaxRuleDepth int
	// NumCandidates is k of Algorithm 2 (paper default: 10K).
	NumCandidates int
	// MinRuleCoverage prunes index nodes covering fewer sentences.
	MinRuleCoverage int

	// Budget is the oracle query budget b.
	Budget int
	// Traversal selects the strategy: "local", "universal" or "hybrid".
	Traversal string
	// Tau is the HybridSearch switching parameter τ (default 5).
	Tau int

	// Classifier configures the p_s estimator.
	Classifier classifier.Config
	// Embedding configures word-embedding training. A zero Dim disables
	// embeddings (bag-of-words features only).
	Embedding embedding.Config
	// LazyScoring enables the paper's §4.5 optimization: after a retrain,
	// only sentences whose previous score exceeded LazyScoreThreshold are
	// re-scored, with a full re-score every third retrain.
	LazyScoring bool
	// LazyScoreThreshold is the confidence cut-off for lazy re-scoring
	// (paper: 0.3).
	LazyScoreThreshold float64

	// OracleSampleSize is how many example sentences accompany each query
	// (Figure 2 shows 5).
	OracleSampleSize int

	// FeatureCacheCap bounds the corpus-level sparse feature cache shared by
	// every session's classifier (entries cost ~0.5 KB/sentence; 0 caches
	// the whole corpus). Sentences beyond the cap are featurized on the fly,
	// bit-identically, so the cap trades CPU for memory without changing any
	// score.
	FeatureCacheCap int

	// Kernel selects the coverage representation the index hands to
	// readers: index.KernelAdaptive (the default: each node's compressed
	// set, its only coverage) or index.KernelDense (a dense mirror of each
	// set built at publish, kept as the pinned reference for equivalence
	// tests and benchmark A/B runs). Both kernels are bit-identical in every
	// score: the session and workspace pin tests check both against the
	// same transcripts.
	Kernel string

	// Seed drives all randomness in the engine.
	Seed int64
}

// DefaultConfig returns the configuration used by the experiments (mirroring
// §4.1 where the paper states its settings).
func DefaultConfig() Config {
	return Config{
		SketchDepth:        5,
		MaxRuleDepth:       10,
		NumCandidates:      10000,
		MinRuleCoverage:    2,
		Budget:             100,
		Traversal:          "hybrid",
		Tau:                traversal.DefaultTau,
		Classifier:         classifier.DefaultConfig(),
		Embedding:          embedding.DefaultConfig(),
		LazyScoring:        true,
		LazyScoreThreshold: 0.3,
		OracleSampleSize:   5,
		Seed:               1,
	}
}

// withDefaults fills zero values with defaults and returns the resolved
// config together with the grammar registry.
func (cfg Config) withDefaults() (Config, *grammar.Registry) {
	def := DefaultConfig()
	if cfg.SketchDepth <= 0 {
		cfg.SketchDepth = def.SketchDepth
	}
	if cfg.MaxRuleDepth <= 0 {
		cfg.MaxRuleDepth = def.MaxRuleDepth
	}
	if cfg.NumCandidates <= 0 {
		cfg.NumCandidates = def.NumCandidates
	}
	if cfg.MinRuleCoverage <= 0 {
		cfg.MinRuleCoverage = def.MinRuleCoverage
	}
	if cfg.Budget <= 0 {
		cfg.Budget = def.Budget
	}
	if cfg.Traversal == "" {
		cfg.Traversal = def.Traversal
	}
	if cfg.Tau <= 0 {
		cfg.Tau = def.Tau
	}
	if cfg.Classifier.Epochs <= 0 {
		cfg.Classifier = def.Classifier
	}
	if cfg.OracleSampleSize <= 0 {
		cfg.OracleSampleSize = def.OracleSampleSize
	}
	if cfg.LazyScoreThreshold <= 0 {
		cfg.LazyScoreThreshold = def.LazyScoreThreshold
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	grams := cfg.Grammars
	if len(grams) == 0 {
		grams = []grammar.Grammar{tokensregex.New(), treematch.New()}
		cfg.Grammars = grams
	}
	reg := grammar.NewRegistry(grams...)
	if _, hasTree := reg.Get(treematch.GrammarName); hasTree {
		cfg.UseParseTrees = true
	}
	return cfg, reg
}

// hierarchyConfig derives the hierarchy-generation settings from the engine
// config.
func (cfg Config) hierarchyConfig() hierarchy.Config {
	return hierarchy.Config{
		NumCandidates: cfg.NumCandidates,
		MaxRuleDepth:  cfg.MaxRuleDepth,
		MinCoverage:   cfg.MinRuleCoverage,
		Cleanup:       true,
	}
}
