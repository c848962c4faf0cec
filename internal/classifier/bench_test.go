package classifier

import (
	"repro/internal/bitset"
	"testing"
)

// benchClassifier returns a logistic-regression classifier at the serving
// daemon's dimensions (32-dim embedding + 512 hashed features) on the
// directions corpus at scale 0.5, its feature cache warm, and 400 positives:
// the gold positives topped up with the lowest-numbered other sentences.
func benchClassifier(b *testing.B) (*SentenceClassifier, bitset.Set) {
	b.Helper()
	c, emb := directionsCorpus(b, 0.5)
	pos := bitset.FromSorted(c.Positives()).Grow(c.Len())
	for id := 0; pos.Count() < 400; id++ {
		pos.Add(id)
	}
	sc := NewSentenceClassifier(c, emb, DefaultConfig(), KindLogReg)
	if err := sc.TrainFromPositives(pos); err != nil {
		b.Fatal(err)
	}
	sc.ScoreAll()
	return sc, pos
}

// BenchmarkClassifierFit measures one retraining round of an accepted
// answer: 400 positives plus 1,200 sampled negatives, 10 SGD epochs.
func BenchmarkClassifierFit(b *testing.B) {
	sc, pos := benchClassifier(b)
	b.ReportAllocs()
	for b.Loop() {
		sc.Reseed(1)
		if err := sc.TrainFromPositives(pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifierScoreAll measures rescoring the whole corpus (7,650
// sentences) after a retrain.
func BenchmarkClassifierScoreAll(b *testing.B) {
	sc, _ := benchClassifier(b)
	b.ReportAllocs()
	for b.Loop() {
		sc.scored = false
		sc.ScoreAll()
	}
}
