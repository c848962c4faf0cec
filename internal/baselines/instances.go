package baselines

import (
	"math/rand"
	"sort"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/eval"
)

// InstanceLabelingConfig configures the Active Learning and Keyword Sampling
// baselines, which spend their budget labeling individual sentences rather
// than verifying rules.
type InstanceLabelingConfig struct {
	// Budget is the number of sentences the annotator labels.
	Budget int
	// SeedPositiveIDs optionally pre-labels a few positives (to match the
	// initialization of the Darwin runs being compared).
	SeedPositiveIDs []int
	// Classifier and Embedding configure the model trained on the labels.
	Classifier classifier.Config
	Embedding  embedding.Config
	// RetrainEvery re-trains the classifier after this many new labels
	// (1 = after every label, as in the paper's AL baseline).
	RetrainEvery int
	// EvalEvery records an F-score point every this many questions.
	EvalEvery int
	// Seed drives sampling.
	Seed int64
}

// Result is the outcome of an instance-labeling baseline run.
type Result struct {
	// FScore is the per-question best-F1 curve of the trained classifier.
	FScore eval.Curve
	// Coverage is the per-question fraction of gold positives among the
	// labeled instances (instance labeling discovers positives one at a
	// time, which is why these curves stay low in the paper).
	Coverage eval.Curve
	// LabeledPositives is the number of positives found within the budget.
	LabeledPositives int
}

// instanceRun factors the shared loop of the AL and KS baselines: pick the
// next sentence to label according to `select`, reveal its gold label,
// periodically retrain and evaluate.
func instanceRun(c *corpus.Corpus, emb *embedding.Model, cfg InstanceLabelingConfig,
	selectNext func(sc *classifier.SentenceClassifier, labeled map[int]bool, rng *rand.Rand) int) Result {

	if cfg.Budget <= 0 {
		cfg.Budget = 100
	}
	if cfg.RetrainEvery <= 0 {
		cfg.RetrainEvery = 1
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sc := classifier.NewSentenceClassifier(c, emb, cfg.Classifier)
	labeled := map[int]bool{} // all labeled sentence IDs
	positives := bitset.New(c.Len())
	npos := 0 // labeled positives
	addPositive := func(id int) {
		if c.Sentence(id).Gold == corpus.Positive && !positives.Contains(id) {
			positives.Add(id)
			npos++
		}
	}
	for _, id := range cfg.SeedPositiveIDs {
		if c.Sentence(id) != nil {
			labeled[id] = true
			addPositive(id)
		}
	}
	retrain := func() {
		if npos > 0 {
			_ = sc.TrainFromPositives(positives)
		}
	}
	retrain()

	res := Result{FScore: eval.Curve{Name: "fscore"}, Coverage: eval.Curve{Name: "coverage"}}
	totalPos := c.NumPositives()
	for q := 1; q <= cfg.Budget; q++ {
		id := selectNext(sc, labeled, rng)
		if id < 0 {
			break
		}
		labeled[id] = true
		addPositive(id)
		if q%cfg.RetrainEvery == 0 {
			retrain()
		}
		if q%cfg.EvalEvery == 0 || q == cfg.Budget {
			f1 := 0.0
			if sc.Trained() {
				f1, _ = eval.BestF1(c, sc.ScoreAll())
			}
			res.FScore.Points = append(res.FScore.Points, eval.CurvePoint{Questions: q, Value: f1})
			cov := 0.0
			if totalPos > 0 {
				cov = float64(npos) / float64(totalPos)
			}
			res.Coverage.Points = append(res.Coverage.Points, eval.CurvePoint{Questions: q, Value: cov})
		}
	}
	res.LabeledPositives = npos
	return res
}

// ActiveLearning runs the uncertainty-sampling baseline of §4.4: each
// question labels the unlabeled sentence with the highest prediction entropy.
func ActiveLearning(c *corpus.Corpus, emb *embedding.Model, cfg InstanceLabelingConfig) Result {
	return instanceRun(c, emb, cfg, func(sc *classifier.SentenceClassifier, labeled map[int]bool, rng *rand.Rand) int {
		best, bestEntropy := -1, -1.0
		if !sc.Trained() {
			// Before the first retrain, fall back to random selection.
			return randomUnlabeled(c.Len(), labeled, rng)
		}
		for id := 0; id < c.Len(); id++ {
			if labeled[id] {
				continue
			}
			e := sc.Entropy(id)
			if e > bestEntropy {
				best, bestEntropy = id, e
			}
		}
		return best
	})
}

// KeywordSampling runs the KS baseline of §4.4: the corpus is filtered to
// sentences containing at least one of the task keywords supplied by an
// annotator, and the budget is spent labeling uniform samples from the
// filtered set.
func KeywordSampling(c *corpus.Corpus, emb *embedding.Model, keywords []string, cfg InstanceLabelingConfig) Result {
	kw := map[string]bool{}
	for _, k := range keywords {
		kw[k] = true
	}
	var filtered []int
	for _, s := range c.Sentences {
		for _, tok := range s.Tokens {
			if kw[tok] {
				filtered = append(filtered, s.ID)
				break
			}
		}
	}
	sort.Ints(filtered)
	return instanceRun(c, emb, cfg, func(sc *classifier.SentenceClassifier, labeled map[int]bool, rng *rand.Rand) int {
		// Uniform sample from the filtered subset; fall back to the whole
		// corpus when the filtered pool is exhausted.
		var pool []int
		for _, id := range filtered {
			if !labeled[id] {
				pool = append(pool, id)
			}
		}
		if len(pool) == 0 {
			return randomUnlabeled(c.Len(), labeled, rng)
		}
		return pool[rng.Intn(len(pool))]
	})
}

// RandomSampling labels uniformly random sentences; it is the naive floor the
// other baselines are compared against in ablations.
func RandomSampling(c *corpus.Corpus, emb *embedding.Model, cfg InstanceLabelingConfig) Result {
	return instanceRun(c, emb, cfg, func(sc *classifier.SentenceClassifier, labeled map[int]bool, rng *rand.Rand) int {
		return randomUnlabeled(c.Len(), labeled, rng)
	})
}

func randomUnlabeled(n int, labeled map[int]bool, rng *rand.Rand) int {
	if len(labeled) >= n {
		return -1
	}
	for {
		id := rng.Intn(n)
		if !labeled[id] {
			return id
		}
	}
}
