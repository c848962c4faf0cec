package classifier

import (
	"math"
	"math/rand"
	"repro/internal/bitset"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/embedding"
)

// makeSeparableData builds a linearly separable 2D dataset.
func makeSeparableData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			X[i] = []float64{rng.Float64() + 1.0, rng.Float64() + 1.0}
			y[i] = 1
		} else {
			X[i] = []float64{-rng.Float64() - 1.0, -rng.Float64() - 1.0}
			y[i] = 0
		}
	}
	return X, y
}

func TestLogisticRegressionSeparable(t *testing.T) {
	X, y := makeSeparableData(200, 1)
	m := NewLogisticRegression(Config{Epochs: 30, LearningRate: 0.5, Seed: 1})
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	correct := 0
	for i := range X {
		p := m.Proba(X[i])
		pred := 0
		if p >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(X))
	if acc < 0.95 {
		t.Errorf("accuracy on separable data = %.2f, want >= 0.95", acc)
	}
}

func TestFitErrors(t *testing.T) {
	lr := NewLogisticRegression(DefaultConfig())
	if err := lr.Fit(nil, nil); err == nil {
		t.Error("Fit(nil) should error")
	}
	if err := lr.Fit([][]float64{{1, 2}}, []int{1, 0}); err == nil {
		t.Error("label/feature mismatch should error")
	}
	if err := lr.Fit([][]float64{{1, 2}, {1}}, []int{1, 0}); err == nil {
		t.Error("ragged features should error")
	}
}

func TestUntrainedProba(t *testing.T) {
	lr := NewLogisticRegression(DefaultConfig())
	if p := lr.Proba([]float64{1, 2}); p != 0.5 {
		t.Errorf("untrained logreg Proba = %f", p)
	}
}

func TestProbaBounds(t *testing.T) {
	X, y := makeSeparableData(100, 5)
	m := NewLogisticRegression(Config{Epochs: 20, LearningRate: 1.0, Seed: 5})
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		p := m.Proba([]float64{a, b})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFeaturizer(t *testing.T) {
	f := NewFeaturizer(nil, 64)
	if f.Dim() != 64 {
		t.Errorf("Dim = %d", f.Dim())
	}
	v1 := f.Features([]string{"shuttle", "to", "airport"})
	v2 := f.Features([]string{"shuttle", "to", "airport"})
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("featurizer not deterministic")
		}
	}
	empty := f.Features(nil)
	for _, x := range empty {
		if x != 0 {
			t.Error("empty sentence features not zero")
		}
	}
	batch := f.FeaturesBatch([][]string{{"a"}, {"b", "c"}})
	if len(batch) != 2 {
		t.Errorf("batch size = %d", len(batch))
	}
}

func TestFeaturizerWithEmbeddings(t *testing.T) {
	sents := [][]string{
		{"shuttle", "to", "the", "airport"},
		{"bus", "to", "the", "airport"},
		{"order", "pizza", "for", "dinner"},
	}
	emb := embedding.Train(sents, embedding.Config{Dim: 10, Window: 2, MinCount: 1, Seed: 1})
	f := NewFeaturizer(emb, 32)
	if f.Dim() != 42 {
		t.Errorf("Dim = %d, want 42", f.Dim())
	}
	v := f.Features([]string{"shuttle", "airport"})
	nonzero := false
	for _, x := range v[:10] {
		if x != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("embedding block all zero for known tokens")
	}
}

func buildScoredCorpus() *corpus.Corpus {
	c := corpus.New("toy", "intent")
	positives := []string{
		"what is the best way to get to the airport",
		"is there a shuttle to the airport",
		"how do i get to the train station",
		"is uber the fastest way to get downtown",
		"which bus goes to the airport",
		"is there a bart from the airport to the hotel",
	}
	negatives := []string{
		"can i order a pizza to my room",
		"what time does the pool open",
		"the wifi password is not working",
		"can i get a late checkout tomorrow",
		"do you have extra towels",
		"is breakfast included with my room",
		"my room has not been cleaned",
		"can you recommend a good restaurant",
	}
	for _, s := range positives {
		c.Add(s, corpus.Positive)
	}
	for _, s := range negatives {
		c.Add(s, corpus.Negative)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	return c
}

func TestSentenceClassifierTrainAndScore(t *testing.T) {
	c := buildScoredCorpus()
	emb := embedding.Train(c.TokenizedSentences(), embedding.Config{Dim: 16, Window: 3, MinCount: 1, Seed: 1})
	sc := NewSentenceClassifier(c, emb, Config{Epochs: 30, LearningRate: 0.5, Seed: 1})

	if sc.Trained() {
		t.Error("new classifier reports trained")
	}
	if p := sc.Score(0); p != 0.5 {
		t.Errorf("untrained Score = %f", p)
	}

	pos := bitset.FromSorted([]int{0, 1, 2})
	if err := sc.TrainFromPositives(pos); err != nil {
		t.Fatalf("TrainFromPositives: %v", err)
	}
	if !sc.Trained() {
		t.Error("classifier not marked trained")
	}
	scores := sc.ScoreAll()
	if len(scores) != c.Len() {
		t.Fatalf("ScoreAll len = %d", len(scores))
	}
	// Average score of gold positives should exceed that of gold negatives
	// (the "better than random" assumption of §3.8).
	var sumPos, sumNeg float64
	var nPos, nNeg int
	for id, s := range c.Sentences {
		if s.Gold == corpus.Positive {
			sumPos += scores[id]
			nPos++
		} else {
			sumNeg += scores[id]
			nNeg++
		}
	}
	if sumPos/float64(nPos) <= sumNeg/float64(nNeg) {
		t.Errorf("classifier not better than random: posAvg=%.3f negAvg=%.3f",
			sumPos/float64(nPos), sumNeg/float64(nNeg))
	}
}

func TestSentenceClassifierErrorsAndEntropy(t *testing.T) {
	c := buildScoredCorpus()
	sc := NewSentenceClassifier(c, nil, DefaultConfig())
	if err := sc.TrainFromPositives(nil); err == nil {
		t.Error("training with no positives should error")
	}
	if err := sc.TrainFromPositives(bitset.FromSorted([]int{0, 1})); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.Len(); id++ {
		e := sc.Entropy(id)
		if e < 0 || e > 1.0001 {
			t.Errorf("entropy out of range: %f", e)
		}
	}
	if got := sc.Score(-5); got != 0.5 {
		t.Errorf("out-of-range Score = %f", got)
	}
	preds := sc.PredictPositive(0.0)
	if len(preds) != c.Len() {
		t.Errorf("PredictPositive(0) = %d sentences, want all", len(preds))
	}
}

// TestSentenceClassifierDefaultKind pins the classifier's one model kind: a
// training round fits a logistic regression with the configured
// hyperparameters.
func TestSentenceClassifierDefaultKind(t *testing.T) {
	c := buildScoredCorpus()
	cfg := DefaultConfig()
	sc := NewSentenceClassifier(c, nil, cfg)
	if sc.Trained() {
		t.Fatal("an untrained classifier reports a model")
	}
	if err := sc.TrainFromPositives(bitset.FromSorted([]int{0, 1})); err != nil {
		t.Fatal(err)
	}
	if !sc.Trained() || !sc.model.trained || sc.model.cfg != cfg {
		t.Errorf("trained model %+v, want a fitted logistic regression with %+v", sc.model, cfg)
	}
}
