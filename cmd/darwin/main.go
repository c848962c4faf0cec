// Command darwin runs the Darwin adaptive rule-discovery pipeline end to end
// on a synthetic dataset (or a JSONL corpus) with a simulated oracle, and
// prints the discovered rules, the coverage of the discovered positive set,
// and the quality of the trained classifier.
//
// With -remote, the same simulated-oracle loop instead drives a labeler on
// a running darwind server through the public SDK (pkg/darwin) and the /v2
// HTTP API; the corpus is generated locally only to play the oracle, so the
// server must serve the same dataset (same name, scale and seed).
//
// Examples:
//
//	darwin -dataset directions -seed-rule "best way to get to" -budget 100
//	darwin -corpus mydata.jsonl -seed-rule "treematch:caused/by" -traversal local
//	darwin -dataset musicians -scale 0.2 -oracle crowd -crowd-flip 0.05
//	darwin -remote http://localhost:8080 -dataset directions -budget 50
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/grammar"
	"repro/internal/oracle"
	"repro/internal/tokensregex"
	"repro/internal/treematch"
	"repro/pkg/darwin"
)

func main() {
	var (
		dataset    = flag.String("dataset", "directions", "synthetic dataset name (ignored when -corpus is given)")
		corpusPath = flag.String("corpus", "", "path to a JSONL corpus written by cmd/datagen")
		scale      = flag.Float64("scale", 0.2, "synthetic dataset scale factor")
		seed       = flag.Int64("seed", 1, "random seed")
		seedRule   = flag.String("seed-rule", "", "seed labeling rule (defaults to the dataset's standard seed)")
		traversalF = flag.String("traversal", "hybrid", "traversal strategy: hybrid | universal | local")
		budget     = flag.Int("budget", 100, "oracle query budget")
		candidates = flag.Int("candidates", 2000, "candidate rules generated per iteration (Algorithm 2's k)")
		sketchD    = flag.Int("sketch-depth", 5, "derivation sketch depth")
		tau        = flag.Int("tau", 5, "HybridSearch switching parameter")
		useTree    = flag.Bool("treematch", false, "enable the TreeMatch grammar (dependency-parse rules)")
		oracleKind = flag.String("oracle", "perfect", "oracle: perfect | noisy | crowd")
		flip       = flag.Float64("flip", 0.05, "per-answer flip rate for the noisy/crowd oracle")
		verbose    = flag.Bool("v", false, "print every oracle interaction")
		remote     = flag.String("remote", "", "drive a labeler on this darwind base URL via the SDK instead of running locally")
		token      = flag.String("token", "", "bearer token for -remote")
	)
	flag.Parse()

	c, err := loadCorpus(*corpusPath, *dataset, *scale, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("corpus: %s\n", c)

	grams := []grammar.Grammar{tokensregex.New()}
	if *useTree {
		grams = append(grams, treematch.New())
	}
	cfg := core.DefaultConfig()
	cfg.Grammars = grams
	cfg.Traversal = *traversalF
	cfg.Budget = *budget
	cfg.NumCandidates = *candidates
	cfg.SketchDepth = *sketchD
	cfg.Tau = *tau
	cfg.Seed = *seed
	cfg.Classifier = classifier.Config{Epochs: 10, LearningRate: 0.3, L2: 1e-4, Seed: *seed}
	cfg.Embedding = embedding.Config{Dim: 32, Window: 4, MinCount: 2, Seed: *seed}

	rule := *seedRule
	if rule == "" {
		rule = experiments.SeedRuleFor(*dataset)
		if rule == "" {
			fatalf("no -seed-rule given and no default seed rule for dataset %q", *dataset)
		}
	}

	var o oracle.Oracle = oracle.NewGroundTruth(c)
	switch *oracleKind {
	case "perfect":
	case "noisy":
		o = oracle.NewNoisy(o, *flip, *seed+1)
	case "crowd":
		o = oracle.NewCrowd(c, *flip, *seed+1)
	default:
		fatalf("unknown oracle %q", *oracleKind)
	}

	if *remote != "" {
		runRemote(*remote, *token, *dataset, rule, *budget, *seed, o, c, *verbose)
		return
	}

	engine, err := core.New(c, cfg)
	if err != nil {
		fatalf("initialize engine: %v", err)
	}
	start := time.Now()
	s, err := engine.NewSession(core.SessionOptions{SeedRules: []string{rule}})
	if err != nil {
		fatalf("start session: %v", err)
	}
	report := s.Run(o, func(rec core.RuleRecord) {
		if *verbose {
			answer := "NO "
			if rec.Accepted {
				answer = "YES"
			}
			fmt.Printf("  q%-3d %s  %-40s coverage=%d  |P|=%d\n",
				rec.Question, answer, rec.Rule, rec.Coverage, rec.PositivesAfter)
		}
	})

	fmt.Printf("\nseed rule: %s\n", rule)
	fmt.Printf("questions asked: %d (budget %d)\n", report.Questions, *budget)
	fmt.Printf("accepted rules (%d):\n", len(report.Accepted))
	for _, rec := range report.Accepted {
		fmt.Printf("  q%-3d %-46s coverage=%d\n", rec.Question, rec.Rule, rec.Coverage)
	}
	cov := eval.CoverageOfSet(c, report.Positives)
	prec := eval.PrecisionOfSet(c, report.Positives)
	fmt.Printf("\ndiscovered positive set: %d sentences, coverage=%.3f precision=%.3f\n",
		len(report.Positives), cov, prec)
	f1, thr := eval.BestF1(c, s.Scores())
	fmt.Printf("classifier best F1 = %.3f (threshold %.1f)\n", f1, thr)
	fmt.Printf("index build %v, total %v (wall clock %v)\n",
		report.IndexBuild.Round(time.Millisecond), report.Total.Round(time.Millisecond),
		time.Since(start).Round(time.Millisecond))
}

func loadCorpus(path, dataset string, scale float64, seed int64) (*corpus.Corpus, error) {
	if path != "" {
		c, err := corpus.LoadJSONL(path)
		if err != nil {
			return nil, fmt.Errorf("load corpus %s: %w", path, err)
		}
		c.Preprocess(corpus.PreprocessOptions{Parse: true})
		return c, nil
	}
	c, err := datagen.ByName(strings.ToLower(dataset), scale, seed)
	if err != nil {
		return nil, err
	}
	c.Preprocess(corpus.PreprocessOptions{Parse: true})
	return c, nil
}

// runRemote drives a labeler on a darwind server through the public SDK:
// the locally generated corpus only plays the oracle (judging the sample
// sentences each suggestion ships), so it must match the dataset the server
// serves.
func runRemote(base, token, dataset, rule string, budget int, seed int64, o oracle.Oracle, c *corpus.Corpus, verbose bool) {
	ctx := context.Background()
	client := darwin.NewClient(base, token)
	lab, err := client.NewLabeler(ctx, darwin.CreateOptions{
		Dataset:   dataset,
		SeedRules: []string{rule},
		Budget:    budget,
		Seed:      seed,
	})
	if err != nil {
		fatalf("remote create: %v", err)
	}
	defer lab.Close(ctx)
	fmt.Printf("remote labeler %s on %s\n", lab.ID(), base)

	start := time.Now()
	for {
		sug, err := lab.Suggest(ctx)
		if errors.Is(err, darwin.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			fatalf("remote suggest: %v", err)
		}
		ids := make([]int, 0, len(sug.Samples))
		for _, s := range sug.Samples {
			ids = append(ids, s.ID)
		}
		accept := o.Answer(oracle.Query{Coverage: ids, Samples: ids})
		if verbose {
			answer := "NO "
			if accept {
				answer = "YES"
			}
			fmt.Printf("  q%-3d %s  %-40s coverage=%d\n", sug.Question, answer, sug.Rule, sug.Coverage)
		}
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: accept}); err != nil {
			fatalf("remote answer: %v", err)
		}
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		fatalf("remote report: %v", err)
	}
	fmt.Printf("\nseed rule: %s\n", rule)
	fmt.Printf("questions asked: %d (budget %d)\n", rep.Questions, rep.Budget)
	fmt.Printf("accepted rules (%d):\n", len(rep.Accepted))
	for _, rec := range rep.Accepted {
		fmt.Printf("  q%-3d %-46s coverage=%d\n", rec.Question, rec.Rule, rec.Coverage)
	}
	positives := make(map[int]bool, len(rep.PositiveIDs))
	for _, id := range rep.PositiveIDs {
		positives[id] = true
	}
	fmt.Printf("\ndiscovered positive set: %d sentences, coverage=%.3f precision=%.3f\n",
		rep.Positives, eval.CoverageOfSet(c, positives), eval.PrecisionOfSet(c, positives))
	fmt.Printf("total wall clock %v\n", time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "darwin: "+format+"\n", args...)
	os.Exit(1)
}
