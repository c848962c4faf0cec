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
		ClassifierKind:  classifier.KindLogReg,
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
// reject-heavy session, the hot path an annotator waits on. Roughly one in
// seven suggestions is accepted, matching observed interactive accept rates.
func BenchmarkSessionNext(b *testing.B) {
	e := benchEngine(b)
	newSession := func() *Session {
		s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sug, ok := s.Next()
		if !ok {
			b.StopTimer()
			s = newSession()
			b.StartTimer()
			continue
		}
		if _, err := s.Answer(sug.Key, i%7 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionNextRejects measures the pure reject path: after the first
// suggestion, every answer is NO, so the positive set never changes. This is
// the path incremental hierarchy reuse targets.
func BenchmarkSessionNextRejects(b *testing.B) {
	e := benchEngine(b)
	newSession := func() *Session {
		s, err := e.NewSession(SessionOptions{SeedRules: []string{"best way to get to"}, Budget: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sug, ok := s.Next()
		if !ok {
			b.StopTimer()
			s = newSession()
			b.StartTimer()
			continue
		}
		if _, err := s.Answer(sug.Key, false); err != nil {
			b.Fatal(err)
		}
	}
}
