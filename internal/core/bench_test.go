package core

import (
	"sync"
	"testing"

	"repro/internal/classifier"
	"repro/internal/corpus"
	"repro/internal/datagen"
	"repro/internal/grammar"
	"repro/internal/tokensregex"
)

// benchConfig mirrors the interactive serving configuration: the paper's 10K
// candidate hierarchy over a TokensRegex index, embeddings disabled so the
// setup cost stays in index construction and the measured cost in the
// hierarchy + traversal hot path.
func benchConfig() Config {
	return Config{
		Grammars:        []grammar.Grammar{tokensregex.New()},
		SketchDepth:     4,
		MaxRuleDepth:    8,
		NumCandidates:   10000,
		MinRuleCoverage: 2,
		Budget:          1 << 30,
		Traversal:       "hybrid",
		Tau:             5,
		Classifier:      classifier.Config{Epochs: 6, LearningRate: 0.3, Seed: 1},
		Seed:            1,
	}
}

var (
	benchOnce   sync.Once
	benchEng    *Engine
	benchEngErr error
	benchCorp   *corpus.Corpus
)

// benchEngine builds (once) a shared engine over the bundled datagen
// directions corpus at half scale (~7.6K sentences).
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	benchOnce.Do(func() {
		benchCorp, benchEngErr = datagen.ByName("directions", 0.5, 7)
		if benchEngErr != nil {
			return
		}
		benchEng, benchEngErr = New(benchCorp, benchConfig())
	})
	if benchEngErr != nil {
		b.Fatal(benchEngErr)
	}
	return benchEng
}

// BenchmarkSessionNext measures one interactive step (Next + Answer) on a
// reject-heavy session: one suggestion in seven is accepted, so the cached
// hierarchy is mostly reused. BenchmarkSessionAccepts runs the accept-heavy
// mix of an interactive annotator. All three session benchmarks run
// sessions of benchQuestions questions, so P stays bounded and the cost per
// step does not depend on b.N.
func BenchmarkSessionNext(b *testing.B) {
	benchSteps(b, benchQuestions, func(i int) bool { return i%7 == 0 })
}

// BenchmarkSessionAccepts measures one interactive step (Next + Answer)
// when every other suggestion is accepted, close to the ~0.5 accepts per
// question the perfbench solo workload measures. Each accept retrains the
// classifier and regenerates the hierarchy, overlapped in Loop.Refit.
func BenchmarkSessionAccepts(b *testing.B) {
	benchSteps(b, benchQuestions, func(i int) bool { return i%2 == 0 })
}

// benchQuestions is the session length of the session benchmarks, the 32
// questions per labeler of the perfbench solo workload.
const benchQuestions = 32

// benchSteps runs b.N answered session steps, answering step i with
// accept(i) and starting a fresh session with the given budget, untimed,
// whenever one ends.
func benchSteps(b *testing.B, budget int, accept func(i int) bool) {
	e := benchEngine(b)
	newSession := func() *Session {
		s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: budget})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession()
	b.ResetTimer()
	for i := 0; i < b.N; {
		sug, ok := s.Next()
		if !ok {
			b.StopTimer()
			s = newSession()
			b.StartTimer()
			continue
		}
		if _, err := s.Answer(sug.Key, accept(i)); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkSessionNextRejects measures the pure reject path: after the first
// suggestion, every answer is NO, so the positive set never changes. This is
// the path incremental hierarchy reuse targets.
func BenchmarkSessionNextRejects(b *testing.B) {
	benchSteps(b, benchQuestions, func(int) bool { return false })
}
