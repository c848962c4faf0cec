package baselines

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/grammar"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/sketch"
	"repro/internal/tokensregex"
	"repro/internal/traversal"
)

func smallCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := datagen.ByName("directions", 0.04, 13)
	if err != nil {
		t.Fatal(err)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	return c
}

func buildState(t *testing.T, c *corpus.Corpus) *traversal.State {
	t.Helper()
	reg := grammar.NewRegistry(tokensregex.New())
	ix := index.Build(c, sketch.NewBuilder(reg, 4))
	ix.Prune(2)
	positives := bitset.New(c.Len())
	h := hierarchy.Generate(ix, positives, hierarchy.Config{NumCandidates: 300, MaxRuleDepth: 5, MinCoverage: 2, Cleanup: true})
	scores := make([]float64, c.Len())
	for id, s := range c.Sentences {
		if s.Gold == corpus.Positive {
			scores[id] = 0.9
		} else {
			scores[id] = 0.1
		}
	}
	return &traversal.State{
		Hierarchy: h,
		Index:     ix,
		Positives: positives,
		Scores:    scores,
		Queried:   map[string]bool{},
	}
}

func TestHighPPicksPreciseSmallRules(t *testing.T) {
	c := smallCorpus(t)
	st := buildState(t, c)
	hp := NewHighP()
	if hp.Name() != "highP" {
		t.Errorf("Name = %q", hp.Name())
	}
	key, ok := hp.Next(st)
	if !ok {
		t.Fatal("HighP proposed nothing")
	}
	// With a perfect classifier the HighP pick has average benefit close to
	// the maximum available.
	bestAvg := 0.0
	for _, k := range st.Hierarchy.NonRootKeys() {
		if a := st.AvgBenefitOf(k); a > bestAvg {
			bestAvg = a
		}
	}
	if st.AvgBenefitOf(key) < bestAvg-1e-9 {
		t.Errorf("HighP pick %q has avg benefit %.3f < max %.3f", key, st.AvgBenefitOf(key), bestAvg)
	}
	// Queried rules are skipped.
	st.Queried[key] = true
	key2, ok := hp.Next(st)
	if ok && key2 == key {
		t.Error("HighP repeated a queried rule")
	}
	hp.Feedback(st, key, true)
	hp.Reseed(st, key)
}

func TestHighCPicksLargestCoverage(t *testing.T) {
	c := smallCorpus(t)
	st := buildState(t, c)
	hc := NewHighC()
	if hc.Name() != "highC" {
		t.Errorf("Name = %q", hc.Name())
	}
	key, ok := hc.Next(st)
	if !ok {
		t.Fatal("HighC proposed nothing")
	}
	got := st.Hierarchy.Node(key).Bits.Count()
	for _, k := range st.Hierarchy.NonRootKeys() {
		if n := st.Hierarchy.Node(k); n.Bits.Count() > got {
			t.Errorf("HighC pick %q covers %d but %q covers %d", key, got, k, n.Bits.Count())
			break
		}
	}
	hc.Feedback(st, key, false)
	hc.Reseed(st, key)
}

func TestHighCAndHighPExhaustion(t *testing.T) {
	c := smallCorpus(t)
	st := buildState(t, c)
	// Mark everything as queried: nothing to propose.
	for _, k := range st.Hierarchy.NonRootKeys() {
		st.Queried[k] = true
	}
	if _, ok := NewHighP().Next(st); ok {
		t.Error("HighP proposed from an exhausted hierarchy")
	}
	if _, ok := NewHighC().Next(st); ok {
		t.Error("HighC proposed from an exhausted hierarchy")
	}
}

func instanceCfg(seed int64) InstanceLabelingConfig {
	return InstanceLabelingConfig{
		Budget:       30,
		Classifier:   classifier.Config{Epochs: 6, LearningRate: 0.3, Seed: seed},
		RetrainEvery: 5,
		EvalEvery:    10,
		Seed:         seed,
	}
}

func TestActiveLearningProducesCurves(t *testing.T) {
	c := smallCorpus(t)
	emb := embedding.Train(c.TokenizedSentences(), embedding.Config{Dim: 16, Window: 3, MinCount: 2, Seed: 1})
	pos := c.Positives()
	cfg := instanceCfg(1)
	cfg.SeedPositiveIDs = pos[:2]
	res := ActiveLearning(c, emb, cfg)
	if len(res.FScore.Points) == 0 || len(res.Coverage.Points) == 0 {
		t.Fatal("empty curves")
	}
	for _, p := range res.FScore.Points {
		if p.Value < 0 || p.Value > 1 {
			t.Errorf("F-score out of range: %v", p)
		}
	}
	// Coverage of instance labeling is bounded by budget/positives and must
	// be far below 1 on an imbalanced corpus with a tiny budget.
	if res.Coverage.Final() > 0.9 {
		t.Errorf("AL coverage suspiciously high: %f", res.Coverage.Final())
	}
	if res.LabeledPositives < 2 {
		t.Errorf("seed positives lost: %d", res.LabeledPositives)
	}
}

func TestKeywordSamplingFindsMorePositivesThanRandom(t *testing.T) {
	c := smallCorpus(t)
	cfg := instanceCfg(2)
	cfg.Budget = 40
	keywords := []string{"shuttle", "bart", "airport", "bus", "way", "directions", "taxi", "train", "uber", "station"}
	ks := KeywordSampling(c, nil, keywords, cfg)
	rs := RandomSampling(c, nil, instanceCfgWithBudget(3, 40))
	if ks.LabeledPositives <= rs.LabeledPositives {
		t.Errorf("keyword sampling found %d positives, random found %d — expected keyword filtering to help",
			ks.LabeledPositives, rs.LabeledPositives)
	}
}

func instanceCfgWithBudget(seed int64, budget int) InstanceLabelingConfig {
	cfg := instanceCfg(seed)
	cfg.Budget = budget
	return cfg
}

func TestKeywordSamplingEmptyKeywordsFallsBack(t *testing.T) {
	c := smallCorpus(t)
	res := KeywordSampling(c, nil, nil, instanceCfgWithBudget(4, 10))
	if len(res.Coverage.Points) == 0 {
		t.Error("no curve points with empty keyword list")
	}
}

func TestInstanceRunBudgetExhaustsCorpus(t *testing.T) {
	// A budget larger than the corpus stops once everything is labeled.
	c := corpus.New("tiny", "t")
	c.Add("the shuttle to the airport", corpus.Positive)
	c.Add("order a pizza", corpus.Negative)
	c.Add("late checkout please", corpus.Negative)
	c.Preprocess(corpus.PreprocessOptions{})
	cfg := instanceCfgWithBudget(5, 50)
	cfg.EvalEvery = 1
	res := RandomSampling(c, nil, cfg)
	if res.LabeledPositives != 1 {
		t.Errorf("LabeledPositives = %d, want 1", res.LabeledPositives)
	}
}
