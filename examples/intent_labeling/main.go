// Intent labeling: discover rules for the Food intent on the tweets dataset
// through the public SDK (pkg/darwin) against an embedded /v2 server, with a
// simulated crowd of annotators judging the sample tweets of each
// suggestion. The accepted rules' coverage sets — carried by the /v2 report
// as coverage_ids — then feed the Snorkel-style generative label model, and
// a noise-aware classifier trains on the de-noised labels (the §4.5 /
// Table 2 pipeline).
//
//	go run ./examples/intent_labeling
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/labelmodel"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/pkg/darwin"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole pipeline; the test drives it as an end-to-end SDK check.
func run(out io.Writer) error {
	ctx := context.Background()

	// The tweets corpus: ~2.1K tweets, 11.4% with Food intent (Table 1).
	c, err := datagen.ByName("tweets", 1.0, 7)
	if err != nil {
		return err
	}
	c.Preprocess(corpus.PreprocessOptions{})
	fmt.Fprintln(out, "corpus:", c)

	cfg := core.DefaultConfig()
	cfg.Budget = 60
	cfg.NumCandidates = 1500
	cfg.Seed = 7
	engine, err := core.New(c, cfg)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{}, &server.Dataset{Name: "tweets", Engine: engine})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lab, err := darwin.NewClient(ts.URL, "").NewLabeler(ctx, darwin.CreateOptions{
		Dataset:   "tweets",
		SeedRules: []string{"craving"},
		Budget:    60,
		Seed:      7,
	})
	if err != nil {
		return err
	}
	defer lab.Close(ctx)

	// A crowd oracle: three annotators per rule, each seeing the sample
	// tweets of Figure 2 and occasionally making a mistake.
	crowd := oracle.NewRecording(oracle.NewCrowd(c, 0.05, 99))
	for {
		sug, err := lab.Suggest(ctx)
		if errors.Is(err, darwin.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			return err
		}
		ids := make([]int, 0, len(sug.Samples))
		for _, s := range sug.Samples {
			ids = append(ids, s.ID)
		}
		accept := crowd.Answer(oracle.Query{Coverage: ids, Samples: ids})
		if err := lab.Answer(ctx, darwin.Answer{Key: sug.Key, Accept: accept}); err != nil {
			return err
		}
	}
	rep, err := lab.Report(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "crowd answered %d questions, %d rules accepted\n", crowd.Count(), len(rep.Accepted))
	positives := make(map[int]bool, len(rep.PositiveIDs))
	for _, id := range rep.PositiveIDs {
		positives[id] = true
	}
	fmt.Fprintf(out, "coverage of Food-intent tweets: %.2f\n", eval.CoverageOfSet(c, positives))

	// Build the label matrix: every accepted rule votes positive on its
	// coverage (the report's coverage_ids); uncovered tweets act as weak
	// negative evidence.
	matrix := labelmodel.NewMatrix(c.Len())
	for _, rec := range rep.Accepted {
		matrix.AddRule(rec.Rule, rec.CoverageIDs, labelmodel.VotePositive)
	}
	var uncovered []int
	for id := 0; id < c.Len(); id++ {
		if !positives[id] {
			uncovered = append(uncovered, id)
		}
	}
	matrix.AddRule("uncovered", uncovered, labelmodel.VoteNegative)

	gen := labelmodel.FitGenerative(matrix, labelmodel.DefaultGenerativeConfig())
	probs := gen.Probabilities()
	ids, labels := labelmodel.TrainingSet(probs, 0.55, 0.45)
	fmt.Fprintf(out, "label model produced %d training examples from %d rules\n", len(ids), matrix.NumRules()-1)

	// Train the noise-aware classifier on the de-noised labels.
	emb := embedding.Train(c.TokenizedSentences(), embedding.DefaultConfig())
	feat := classifier.NewFeaturizer(emb, 512)
	X := make([][]float64, len(ids))
	y := make([]int, len(ids))
	for i, id := range ids {
		X[i] = feat.Features(c.Sentence(id).Tokens)
		y[i] = labels[i]
	}
	model := classifier.NewLogisticRegression(classifier.DefaultConfig())
	if err := model.Fit(X, y); err != nil {
		return err
	}
	scores := make([]float64, c.Len())
	for id := 0; id < c.Len(); id++ {
		scores[id] = model.Proba(feat.Features(c.Sentence(id).Tokens))
	}
	f1, thr := eval.BestF1(c, scores)
	fmt.Fprintf(out, "noise-aware classifier F1 = %.2f (threshold %.1f)\n", f1, thr)

	// Show a few tweets the classifier is most confident about.
	fmt.Fprintln(out, "\nhighest-scoring tweets:")
	for _, id := range topK(scores, 5) {
		fmt.Fprintf(out, "  %.2f  %s\n", scores[id], c.Sentence(id).Text)
	}
	return nil
}

func topK(scores []float64, k int) []int {
	ids := make([]int, len(scores))
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < k && i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if scores[ids[j]] > scores[ids[i]] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
