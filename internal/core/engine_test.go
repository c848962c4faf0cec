package core

import (
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/oracle"
	"repro/internal/tokensregex"
	"repro/internal/traversal"
)

// testCorpus generates a small directions corpus (positive rate 3.8%).
func testCorpus(t *testing.T, scale float64) *corpus.Corpus {
	t.Helper()
	c, err := datagen.ByName("directions", scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fastConfig returns an engine configuration small enough for unit tests.
func fastConfig(trav string) Config {
	return Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    6,
		NumCandidates:   400,
		MinRuleCoverage: 2,
		Budget:          30,
		Traversal:       trav,
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 8, LearningRate: 0.3, Seed: 1},
		Embedding:       embedding.Config{Dim: 24, Window: 3, MinCount: 2, Seed: 1},
		Seed:            1,
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil corpus should error")
	}
	if _, err := New(corpus.New("empty", "t"), DefaultConfig()); err == nil {
		t.Error("empty corpus should error")
	}

	c := testCorpus(t, 0.03)
	e, err := New(c, fastConfig("hybrid"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewSession(SessionOptions{SeedRules: []string{"@@@ ???"}}); err == nil {
		t.Error("unparseable seed rule should error")
	}
	if _, err := e.NewSession(SessionOptions{SeedRules: []string{"zzzznonexistenttoken"}}); err == nil {
		t.Error("zero-coverage seed with no positives should error")
	}
}

func TestEngineRunHybridDiscoversPositives(t *testing.T) {
	c := testCorpus(t, 0.06) // ~900 sentences, ~35 positives
	cfg := fastConfig("hybrid")
	cfg.Budget = 50
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewRecording(oracle.NewGroundTruth(c))
	discovered := map[int]bool{}
	var curve eval.Curve
	s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run(o, func(rec RuleRecord) {
		for _, id := range rec.AddedIDs {
			discovered[id] = true
		}
		curve.Points = append(curve.Points, eval.CurvePoint{
			Questions: rec.Question,
			Value:     eval.CoverageOfSet(e.Corpus(), discovered),
		})
	})
	// The per-question coverage curve is monotone non-decreasing.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Value < curve.Points[i-1].Value {
			t.Errorf("coverage curve decreased at question %d", curve.Points[i].Questions)
		}
	}
	if rep.Questions == 0 || rep.Questions > cfg.Budget {
		t.Errorf("questions = %d", rep.Questions)
	}
	if o.Count() != rep.Questions {
		t.Errorf("oracle saw %d queries, report says %d", o.Count(), rep.Questions)
	}
	cov := eval.CoverageOfSet(c, rep.Positives)
	if cov < 0.5 {
		t.Errorf("coverage after %d questions = %.2f, want >= 0.5 (accepted rules: %v)",
			rep.Questions, cov, rep.AcceptedRuleStrings())
	}
	// Precision of the discovered set must be high (oracle only accepts >=80%
	// precise rules).
	if p := eval.PrecisionOfSet(c, rep.Positives); p < 0.7 {
		t.Errorf("precision of discovered set = %.2f", p)
	}
	// The seed rule is recorded as accepted with question number 0.
	if len(rep.Accepted) == 0 || rep.Accepted[0].Question != 0 {
		t.Errorf("seed rule not recorded: %+v", rep.Accepted)
	}
	// History is consistent: accepted records add IDs, rejected add none.
	for _, rec := range rep.History {
		if !rec.Accepted && len(rec.AddedIDs) > 0 {
			t.Errorf("rejected rule %q added positives", rec.Rule)
		}
	}
	if len(rep.PositiveIDs()) != len(rep.Positives) {
		t.Error("PositiveIDs length mismatch")
	}
}

func TestEngineSeedPositiveIDs(t *testing.T) {
	c := testCorpus(t, 0.04)
	cfg := fastConfig("local")
	cfg.Budget = 20
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed with two gold-positive sentences ("a couple of labeled
	// instances"), no seed rule.
	pos := c.Positives()
	if len(pos) < 2 {
		t.Fatal("test corpus has too few positives")
	}
	repo := runBatch(t, e, SessionOptions{SeedPositiveIDs: []int{pos[0], pos[1]}}, oracle.NewGroundTruth(c))
	if len(repo.Positives) < 2 {
		t.Errorf("positives shrank below the seed: %d", len(repo.Positives))
	}
	if repo.Questions == 0 {
		t.Error("no questions asked")
	}
	// Out-of-range seed IDs are ignored.
	if _, err := e.NewSession(SessionOptions{SeedPositiveIDs: []int{-1, 1 << 30}}); err == nil {
		t.Error("only-invalid seed IDs should error (empty P)")
	}
}

func TestEngineTraversalVariantsAndCustom(t *testing.T) {
	c := testCorpus(t, 0.04)
	for _, trav := range []string{"local", "universal", "hybrid"} {
		cfg := fastConfig(trav)
		cfg.Budget = 15
		e, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		repo := runBatch(t, e, SessionOptions{SeedRules: []string{"shuttle to"}}, oracle.NewGroundTruth(c))
		if repo.Questions == 0 {
			t.Errorf("%s asked no questions", trav)
		}
	}

	// A custom traversal (the HighC-style "max coverage" selector) plugs in
	// through SessionOptions.Traversal.
	cfg := fastConfig("hybrid")
	cfg.Budget = 10
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo := runBatch(t, e, SessionOptions{SeedRules: []string{"shuttle to"}, Traversal: maxCoverageTraversal{}}, oracle.NewGroundTruth(c))
	if repo.Questions == 0 {
		t.Error("custom traversal asked no questions")
	}
}

// runBatch starts a session on e and drives it to its end with o answering.
func runBatch(t testing.TB, e *Engine, opts SessionOptions, o oracle.Oracle) *Report {
	t.Helper()
	s, err := e.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(o, nil)
}

// maxCoverageTraversal proposes the unqueried rule with the largest coverage.
type maxCoverageTraversal struct{}

func (maxCoverageTraversal) Name() string { return "maxcov" }
func (maxCoverageTraversal) Next(st *traversal.State) (string, bool) {
	best, bestCov := "", -1
	for _, key := range st.Hierarchy.NonRootKeys() {
		if st.Queried[key] {
			continue
		}
		if n := st.Hierarchy.Node(key); n != nil && n.Bits.Count() > bestCov {
			best, bestCov = key, n.Bits.Count()
		}
	}
	return best, best != ""
}
func (maxCoverageTraversal) Feedback(*traversal.State, string, bool) {}
func (maxCoverageTraversal) Reseed(*traversal.State, string)         {}

func TestEngineLazyScoringMatchesEagerOnAcceptance(t *testing.T) {
	c := testCorpus(t, 0.03)
	run := func(lazy bool) *Report {
		cfg := fastConfig("hybrid")
		cfg.Budget = 12
		cfg.LazyScoring = lazy
		e, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runBatch(t, e, SessionOptions{SeedRules: []string{"best way to get to"}}, oracle.NewGroundTruth(c))
	}
	lazy := run(true)
	eager := run(false)
	// Lazy scoring is an approximation; it must still discover a comparable
	// number of positives (within a factor of 2 on this small corpus).
	if len(lazy.Positives)*2 < len(eager.Positives) {
		t.Errorf("lazy scoring found %d positives vs %d eager", len(lazy.Positives), len(eager.Positives))
	}
}

func TestEngineTreeMatchRulesParse(t *testing.T) {
	c, err := datagen.ByName("cause-effect", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumCandidates = 300
	cfg.SketchDepth = 3
	cfg.Budget = 10
	cfg.Classifier = classifier.Config{Epochs: 6, LearningRate: 0.3, Seed: 1}
	cfg.Embedding = embedding.Config{Dim: 16, Window: 3, MinCount: 2, Seed: 1}
	e, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both grammars are registered by default: a TreeMatch seed parses.
	h, err := e.ParseRule("treematch:caused/by")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if !strings.Contains(h.Key(), "treematch") {
		t.Errorf("wrong grammar: %s", h.Key())
	}
	repo := runBatch(t, e, SessionOptions{SeedRules: []string{"treematch:caused/by"}}, oracle.NewGroundTruth(c))
	if len(repo.Positives) == 0 {
		t.Error("TreeMatch seed produced no positives")
	}
}

func TestDefaultConfigAndWithDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Budget != 100 || cfg.Traversal != "hybrid" || cfg.NumCandidates != 10000 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	resolved, reg := Config{}.withDefaults()
	if resolved.Budget != 100 || resolved.SketchDepth != 5 {
		t.Errorf("withDefaults did not fill: %+v", resolved)
	}
	if !resolved.UseParseTrees {
		t.Error("TreeMatch default should force parse trees")
	}
	if len(reg.Grammars()) != 2 {
		t.Errorf("default registry has %d grammars", len(reg.Grammars()))
	}
}
