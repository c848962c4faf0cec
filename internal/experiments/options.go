// Package experiments contains one driver per table and figure of the
// paper's evaluation section (§4). Each driver generates (or accepts) the
// corresponding synthetic dataset, runs Darwin and the relevant baselines,
// and returns the rows/series the paper reports so that cmd/benchrunner and
// the root bench_test.go can print them.
//
// Absolute numbers differ from the paper (synthetic corpora, substitute
// classifier), but the comparative shape — which technique wins, by roughly
// what factor, and where the crossovers fall — is what these drivers
// reproduce; EXPERIMENTS.md records the measured values next to the paper's.
package experiments

import (
	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
)

// Options is the shared experiment configuration. The zero value is not
// useful; start from DefaultOptions (laptop-scale, minutes per experiment) or
// QuickOptions (CI-scale, seconds per experiment) and override as needed.
type Options struct {
	// Scale multiplies every dataset's Table 1 size (1.0 = paper size;
	// professions defaults to 100K at scale 1).
	Scale float64
	// Budget is the oracle query budget per Darwin run.
	Budget int
	// NumCandidates is k of Algorithm 2.
	NumCandidates int
	// SketchDepth bounds derivation sketches.
	SketchDepth int
	// EvalEvery controls how often per-question F-scores are computed.
	EvalEvery int
	// Seed drives dataset generation and every engine.
	Seed int64
	// UseTreeMatch enables the TreeMatch grammar in addition to TokensRegex.
	// TokensRegex alone is sufficient for the phrase-style tasks and is much
	// faster; cause-effect and professions benefit from TreeMatch rules.
	UseTreeMatch bool
	// ClassifierEpochs is the number of training epochs of the p_s model.
	ClassifierEpochs int
	// EmbeddingDim is the word-embedding dimensionality (0 disables).
	EmbeddingDim int
}

// DefaultOptions returns laptop-scale settings: datasets at 20% of their
// Table 1 size, a budget of 100 questions, 2000 candidates per iteration.
func DefaultOptions() Options {
	return Options{
		Scale:            0.2,
		Budget:           100,
		NumCandidates:    2000,
		SketchDepth:      5,
		EvalEvery:        10,
		Seed:             1,
		UseTreeMatch:     false,
		ClassifierEpochs: 10,
		EmbeddingDim:     32,
	}
}

// QuickOptions returns CI-scale settings used by the Go benchmarks and tests:
// datasets at 5% of their Table 1 size and a budget of 30 questions.
func QuickOptions() Options {
	return Options{
		Scale:            0.05,
		Budget:           30,
		NumCandidates:    600,
		SketchDepth:      4,
		EvalEvery:        10,
		Seed:             1,
		UseTreeMatch:     false,
		ClassifierEpochs: 8,
		EmbeddingDim:     24,
	}
}

// PaperOptions returns full paper-scale settings (Table 1 sizes, budget 100,
// 10K candidates). Expect multi-minute runtimes per dataset.
func PaperOptions() Options {
	return Options{
		Scale:            1.0,
		Budget:           100,
		NumCandidates:    10000,
		SketchDepth:      5,
		EvalEvery:        5,
		Seed:             1,
		UseTreeMatch:     true,
		ClassifierEpochs: 10,
		EmbeddingDim:     50,
	}
}

// engineConfig derives a core.Config from the options.
func (o Options) engineConfig() core.Config {
	grams := []grammar.Grammar{tokensregex.New()}
	if o.UseTreeMatch {
		grams = append(grams, treematch.New())
	}
	cfg := core.DefaultConfig()
	cfg.Grammars = grams
	cfg.SketchDepth = o.SketchDepth
	cfg.NumCandidates = o.NumCandidates
	cfg.Budget = o.Budget
	cfg.Seed = o.Seed
	cfg.Classifier = classifier.Config{Epochs: o.ClassifierEpochs, LearningRate: 0.3, L2: 1e-4, Seed: o.Seed}
	if o.EmbeddingDim > 0 {
		cfg.Embedding = embedding.Config{Dim: o.EmbeddingDim, Window: 4, MinCount: 2, Seed: o.Seed}
	} else {
		cfg.Embedding = embedding.Config{}
	}
	return cfg
}

// classifierConfig returns the classifier settings used by the instance
// labeling baselines, matched to the Darwin runs.
func (o Options) classifierConfig() classifier.Config {
	return classifier.Config{Epochs: o.ClassifierEpochs, LearningRate: 0.3, L2: 1e-4, Seed: o.Seed}
}

// embeddingConfig returns the embedding settings shared by all techniques.
func (o Options) embeddingConfig() embedding.Config {
	return embedding.Config{Dim: o.EmbeddingDim, Window: 4, MinCount: 2, Seed: o.Seed}
}

// SeedRuleFor returns the seed labeling rule used for each dataset's Darwin
// runs (the "single labeling heuristic" initialization of §4.3), mirroring
// the paper's examples: 'best way to get to' for directions, 'has been caused
// by' for cause-effect, 'composer' for musicians, and natural choices for the
// remaining tasks.
func SeedRuleFor(dataset string) string {
	switch dataset {
	case "directions":
		return "best way to get to"
	case "cause-effect":
		return "was caused by"
	case "musicians":
		return "composer"
	case "professions":
		return "works as a"
	case "tweets", "food-tweets":
		return "craving"
	default:
		return ""
	}
}

// KeywordsFor returns the 10 task keywords an annotator would provide for the
// Keyword Sampling baseline of §4.4.
func KeywordsFor(dataset string) []string {
	switch dataset {
	case "directions":
		return []string{"shuttle", "bart", "airport", "bus", "taxi", "uber", "train", "directions", "way", "station"}
	case "cause-effect":
		return []string{"caused", "cause", "resulted", "led", "triggered", "due", "because", "effect", "blamed", "attributed"}
	case "musicians":
		return []string{"composer", "piano", "violin", "singer", "band", "album", "symphony", "guitar", "music", "recorded"}
	case "professions":
		return []string{"scientist", "teacher", "engineer", "doctor", "lawyer", "nurse", "job", "career", "works", "profession"}
	case "tweets", "food-tweets":
		return []string{"craving", "hungry", "eat", "pizza", "sushi", "dinner", "food", "order", "tacos", "burger"}
	default:
		return nil
	}
}
