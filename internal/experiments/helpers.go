package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/oracle"
	"repro/internal/traversal"
)

// newRand returns a seeded random source for experiment-level sampling.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// embeddingModel trains the shared word embeddings for a corpus, or returns
// nil when embeddings are disabled.
func (o Options) embeddingModel(c *corpus.Corpus) *embedding.Model {
	if o.EmbeddingDim <= 0 {
		return nil
	}
	return embedding.Train(c.TokenizedSentences(), o.embeddingConfig())
}

// Dataset generates (and preprocesses) one of the five paper datasets at the
// options' scale.
func (o Options) Dataset(name string) (*corpus.Corpus, error) {
	c, err := datagen.ByName(name, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: o.UseTreeMatch})
	return c, nil
}

// DarwinRun bundles the report and the per-question curves of one Darwin run.
type DarwinRun struct {
	// Method names the technique ("darwin-hs", "darwin-us", "darwin-ls",
	// "highP", "highC", ...).
	Method string
	// Report is the engine's run report.
	Report *core.Report
	// Coverage is the per-question fraction of gold positives discovered.
	Coverage eval.Curve
	// FScore is the per-question best-F1 of the engine's classifier.
	FScore eval.Curve
}

// runDarwin runs one session on the corpus with the given traversal (nil
// uses cfg.Traversal) and builds the per-question curves.
func runDarwin(c *corpus.Corpus, cfg core.Config, method string, custom traversal.Traversal,
	seedRules []string, seedIDs []int, o oracle.Oracle, evalEvery int) (DarwinRun, error) {

	engine, err := core.New(c, cfg)
	if err != nil {
		return DarwinRun{}, fmt.Errorf("experiments: %s: %w", method, err)
	}
	run := DarwinRun{Method: method,
		Coverage: eval.Curve{Name: method},
		FScore:   eval.Curve{Name: method},
	}
	if evalEvery <= 0 {
		evalEvery = 10
	}
	s, err := engine.NewSession(core.SessionOptions{
		SeedRules:       seedRules,
		SeedPositiveIDs: seedIDs,
		Traversal:       custom,
	})
	if err != nil {
		return DarwinRun{}, fmt.Errorf("experiments: %s: %w", method, err)
	}
	report := s.Run(o, func(rec core.RuleRecord) {
		if rec.Question%evalEvery == 0 || rec.Question == cfg.Budget {
			f1, _ := eval.BestF1(c, s.Scores())
			run.FScore.Points = append(run.FScore.Points, eval.CurvePoint{Questions: rec.Question, Value: f1})
		}
	})
	run.Report = report
	run.Coverage = coverageCurve(c, report, method)
	return run, nil
}

// coverageCurve reconstructs the per-question coverage curve from a report:
// the union of seed coverage (question 0) plus the accepted rules' additions.
func coverageCurve(c *corpus.Corpus, report *core.Report, name string) eval.Curve {
	curve := eval.Curve{Name: name}
	discovered := map[int]bool{}
	for _, rec := range report.Accepted {
		if rec.Question == 0 {
			for _, id := range rec.AddedIDs {
				discovered[id] = true
			}
		}
	}
	curve.Points = append(curve.Points, eval.CurvePoint{Questions: 0, Value: eval.CoverageOfSet(c, discovered)})
	for _, rec := range report.History {
		for _, id := range rec.AddedIDs {
			discovered[id] = true
		}
		curve.Points = append(curve.Points, eval.CurvePoint{
			Questions: rec.Question,
			Value:     eval.CoverageOfSet(c, discovered),
		})
	}
	return curve
}

// darwinVariant runs one Darwin traversal variant ("hybrid", "universal",
// "local") with the dataset's default seed rule and a ground-truth oracle.
func (o Options) darwinVariant(c *corpus.Corpus, dataset, variant string) (DarwinRun, error) {
	cfg := o.engineConfig()
	cfg.Traversal = variant
	seed := SeedRuleFor(dataset)
	return runDarwin(c, cfg, "darwin-"+shortName(variant), nil,
		[]string{seed}, nil, oracle.NewGroundTruth(c), o.EvalEvery)
}

func shortName(variant string) string {
	switch variant {
	case "hybrid":
		return "hs"
	case "universal":
		return "us"
	case "local":
		return "ls"
	default:
		return variant
	}
}
