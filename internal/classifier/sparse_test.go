package classifier

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
)

// denseFit is the dense SGD kernel logistic regression ran before it trained
// on sparse vectors, kept here as the oracle the sparse kernel must match bit
// for bit.
func denseFit(cfg Config, X [][]float64, y []int) ([]float64, float64) {
	w := make([]float64, len(X[0]))
	var b float64
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	lr := cfg.LearningRate
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x := X[i]
			p := sigmoid(dot(w, x) + b)
			grad := p - float64(y[i])
			for d, xd := range x {
				w[d] -= lr * (grad*xd + cfg.L2*w[d])
			}
			b -= lr * grad
		}
	}
	return w, b
}

// denseProba is the dense scoring the oracle pairs with denseFit.
func denseProba(w []float64, b float64, x []float64) float64 {
	return sigmoid(dot(w, x) + b)
}

// oracleTrainingSet rebuilds, from dense features, the training set
// TrainFromPositives draws: the positives in id order, then negatives
// sampled from rng exactly as the classifier samples them.
func oracleTrainingSet(c *corpus.Corpus, feat *Featurizer, rng *rand.Rand, negFactor int, positives map[int]bool) ([][]float64, []int) {
	var X [][]float64
	var y []int
	for id := 0; id < c.Len(); id++ {
		if positives[id] {
			X = append(X, feat.Features(c.Sentence(id).Tokens))
			y = append(y, 1)
		}
	}
	wantNeg := max(len(X)*negFactor, 8)
	negSeen := map[int]bool{}
	for tries := 0; len(negSeen) < wantNeg && tries < wantNeg*20; tries++ {
		id := rng.Intn(c.Len())
		if positives[id] || negSeen[id] {
			continue
		}
		negSeen[id] = true
		X = append(X, feat.Features(c.Sentence(id).Tokens))
		y = append(y, 0)
	}
	return X, y
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// directionsCorpus returns the directions corpus at the given scale,
// preprocessed, with a 32-dimensional embedding trained on it (the serving
// daemon's dimensions).
func directionsCorpus(t testing.TB, scale float64) (*corpus.Corpus, *embedding.Model) {
	t.Helper()
	c, err := datagen.ByName("directions", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	emb := embedding.Train(c.TokenizedSentences(), embedding.Config{Dim: 32, Window: 4, MinCount: 2, Seed: 1})
	return c, emb
}

// growingPositives returns three nested positive sets, the way P grows
// across accepted rules: a third of the gold positives, all of them, and all
// of them plus every 40th sentence.
func growingPositives(c *corpus.Corpus, extra ...int) []map[int]bool {
	gold := c.Positives()
	var rounds []map[int]bool
	p := map[int]bool{}
	for _, id := range gold[:len(gold)/3] {
		p[id] = true
	}
	rounds = append(rounds, clonePositives(p))
	for _, id := range gold {
		p[id] = true
	}
	for _, id := range extra {
		p[id] = true
	}
	rounds = append(rounds, clonePositives(p))
	for id := 0; id < c.Len(); id += 40 {
		p[id] = true
	}
	return append(rounds, clonePositives(p))
}

func clonePositives(p map[int]bool) map[int]bool {
	out := make(map[int]bool, len(p))
	for id := range p {
		out[id] = true
	}
	return out
}

// checkAgainstOracle trains sc on each positive set in turn and asserts that
// the weights, the bias and every ScoreAll and ScoreOne output carry exactly
// the bits the dense oracle produces. It returns, per round, how many hashed
// columns are zero in every training example.
func checkAgainstOracle(t *testing.T, sc *SentenceClassifier, emb *embedding.Model, rounds []map[int]bool) []int {
	t.Helper()
	var inactive []int
	c := sc.corp
	cfg := sc.cfg
	feat := NewFeaturizer(emb, 512)
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	dense := make([][]float64, c.Len())
	for id := range dense {
		dense[id] = feat.Features(c.Sentence(id).Tokens)
	}
	for r, pos := range rounds {
		if err := sc.TrainFromPositives(bitset.FromMap(pos)); err != nil {
			t.Fatal(err)
		}
		X, y := oracleTrainingSet(c, feat, rng, sc.NegativeFactor, pos)
		w, b := denseFit(cfg, X, y)
		m := sc.model.(*LogisticRegression)
		if len(m.weights) != len(w) {
			t.Fatalf("round %d: %d weights, oracle has %d", r, len(m.weights), len(w))
		}
		for d := range w {
			if !sameBits(m.weights[d], w[d]) {
				t.Fatalf("round %d: weight %d = %v (%#x), oracle %v (%#x)",
					r, d, m.weights[d], math.Float64bits(m.weights[d]), w[d], math.Float64bits(w[d]))
			}
		}
		if !sameBits(m.bias, b) {
			t.Fatalf("round %d: bias = %v, oracle %v", r, m.bias, b)
		}
		inactive = append(inactive, zeroColumns(X, feat.EmbDim()))
		all := sc.ScoreAll()
		if len(all) != c.Len() {
			t.Fatalf("round %d: ScoreAll has %d scores for %d sentences", r, len(all), c.Len())
		}
		for id, x := range dense {
			want := denseProba(w, b, x)
			if !sameBits(all[id], want) {
				t.Fatalf("round %d: ScoreAll[%d] = %v, oracle %v", r, id, all[id], want)
			}
			if got := sc.ScoreOne(id); !sameBits(got, want) {
				t.Fatalf("round %d: ScoreOne(%d) = %v, oracle %v", r, id, got, want)
			}
		}
	}
	return inactive
}

// zeroColumns counts the columns from index from on that are zero in every
// row of X.
func zeroColumns(X [][]float64, from int) int {
	n := 0
	for d := from; d < len(X[0]); d++ {
		zero := true
		for _, x := range X {
			zero = zero && x[d] == 0
		}
		if zero {
			n++
		}
	}
	return n
}

// TestSparseKernelMatchesDenseOracle pins the sparse logistic-regression
// kernel to the dense SGD it replaced, bit for bit, on the directions corpus
// with a 32-dimensional embedding.
func TestSparseKernelMatchesDenseOracle(t *testing.T) {
	c, emb := directionsCorpus(t, 0.2)
	cfg := DefaultConfig()

	t.Run("uncapped", func(t *testing.T) {
		sc := NewSentenceClassifier(c, emb, cfg, KindLogReg)
		sc.ShareFeatureCache(NewFeatureCache(c.Len()))
		checkAgainstOracle(t, sc, emb, growingPositives(c))
	})
	t.Run("capped", func(t *testing.T) {
		cache := NewFeatureCacheCapped(c.Len(), 200)
		sc := NewSentenceClassifier(c, emb, cfg, KindLogReg)
		sc.ShareFeatureCache(cache)
		checkAgainstOracle(t, sc, emb, growingPositives(c))
		if n := cache.Len(); n != 200 {
			t.Fatalf("capped cache holds %d entries, want 200", n)
		}
	})
	t.Run("no-embedding", func(t *testing.T) {
		sc := NewSentenceClassifier(c, nil, cfg, KindLogReg)
		checkAgainstOracle(t, sc, nil, growingPositives(c))
	})
	// One and then two positives: the 8-negative floor sets the sample
	// size, and most hashed columns are inactive.
	t.Run("tiny-P", func(t *testing.T) {
		gold := c.Positives()
		rounds := []map[int]bool{{gold[0]: true}, {gold[0]: true, gold[1]: true}}
		sc := NewSentenceClassifier(c, emb, cfg, KindLogReg)
		for r, n := range checkAgainstOracle(t, sc, emb, rounds) {
			if n == 0 {
				t.Fatalf("round %d: every hashed column is active", r)
			}
		}
	})
}

// TestSparseKernelMatchesDenseOracleAfterIngest covers sentences appended to
// the corpus after the shared feature cache was sized: they lie past the
// cache's slots and are featurized on every use.
func TestSparseKernelMatchesDenseOracleAfterIngest(t *testing.T) {
	c, emb := directionsCorpus(t, 0.1)
	cache := NewFeatureCache(c.Len())
	more, err := datagen.ByName("directions", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	from := c.Len()
	var ingested []int
	for _, s := range more.Sentences {
		ingested = append(ingested, c.Add(s.Text, s.Gold).ID)
	}
	c.PreprocessFrom(from, corpus.PreprocessOptions{})
	sc := NewSentenceClassifier(c, emb, DefaultConfig(), KindLogReg)
	sc.ShareFeatureCache(cache)
	if sc.cache != cache {
		t.Fatal("shared cache was not attached")
	}
	checkAgainstOracle(t, sc, emb, growingPositives(c, ingested[:len(ingested)/2]...))
}

// TestDenseFitMatchesDenseOracle checks the public dense Fit/Proba wrapper
// against the oracle, including inputs the featurizer never produces:
// negative values, many exact zeros, columns zero in every row (the first,
// an interior and the last one), a row with no nonzero entry, no L2 term and
// a large step size.
func TestDenseFitMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X := make([][]float64, 300)
	y := make([]int, len(X))
	for i := range X {
		X[i] = make([]float64, 40)
		for d := range X[i] {
			if rng.Float64() < 0.3 {
				X[i][d] = rng.Float64()*2 - 1
			}
		}
		if X[i][0]+X[i][1]-X[i][2] > 0 {
			y[i] = 1
		}
	}
	sparse := make([][]float64, len(X))
	for i, x := range X {
		sparse[i] = append([]float64(nil), x...)
		for _, d := range []int{0, 17, len(x) - 1} {
			sparse[i][d] = 0
		}
	}
	clear(sparse[5])
	if n := zeroColumns(sparse, 0); n != 3 {
		t.Fatalf("%d columns are zero in every row, want 3", n)
	}

	for _, in := range []struct {
		name string
		X    [][]float64
	}{{"all-active", X}, {"zero-columns", sparse}} {
		for _, cfg := range []Config{
			DefaultConfig(),
			{Epochs: 15, LearningRate: 0.9, L2: 0, Seed: 3},
			{Epochs: 5, LearningRate: 0.3, L2: 0.05, Seed: 4},
		} {
			m := NewLogisticRegression(cfg)
			if err := m.Fit(in.X, y); err != nil {
				t.Fatal(err)
			}
			w, b := denseFit(cfg, in.X, y)
			for d := range w {
				if !sameBits(m.weights[d], w[d]) {
					t.Fatalf("%s, cfg %+v: weight %d = %v, oracle %v", in.name, cfg, d, m.weights[d], w[d])
				}
			}
			if !sameBits(m.bias, b) {
				t.Fatalf("%s, cfg %+v: bias = %v, oracle %v", in.name, cfg, m.bias, b)
			}
			for i, x := range in.X {
				if got, want := m.Proba(x), denseProba(w, b, x); !sameBits(got, want) {
					t.Fatalf("%s, cfg %+v: Proba(X[%d]) = %v, oracle %v", in.name, cfg, i, got, want)
				}
			}
		}
	}
}

// TestRefitRescorePolicy pins Refit's rescoring policy: a full rescore on
// the first and every third round, and between them a lazy rescore of the
// sentences that are positive or scored above the threshold.
func TestRefitRescorePolicy(t *testing.T) {
	c, emb := directionsCorpus(t, 0.1)
	cfg := DefaultConfig()
	const thr = 0.3
	rounds := growingPositives(c)
	rounds = append(rounds, rounds[2], rounds[1], rounds[2])

	sc := NewSentenceClassifier(c, emb, cfg, KindLogReg)
	ref := NewSentenceClassifier(c, emb, cfg, KindLogReg)
	scores := make([]float64, c.Len())
	want := make([]float64, c.Len())
	for i := range scores {
		scores[i], want[i] = 0.5, 0.5
	}
	n := 0
	for r, pos := range rounds {
		bits := bitset.FromMap(pos)
		if err := sc.Refit(bits, scores, &n, true, thr); err != nil {
			t.Fatal(err)
		}
		if n != r+1 {
			t.Fatalf("round %d: rounds counter = %d", r, n)
		}
		if err := ref.TrainFromPositives(bits); err != nil {
			t.Fatal(err)
		}
		full := r%3 == 0
		for id := range want {
			if full || want[id] > thr || pos[id] {
				want[id] = ref.ScoreOne(id)
			}
		}
		for id := range want {
			if !sameBits(scores[id], want[id]) {
				t.Fatalf("round %d (full=%v): score %d = %v, want %v", r, full, id, scores[id], want[id])
			}
		}
	}
	if err := sc.Refit(nil, scores, &n, true, thr); err == nil {
		t.Fatal("Refit with no positives succeeded")
	}
	if n != len(rounds) {
		t.Fatalf("failed Refit moved the rounds counter to %d", n)
	}
}
