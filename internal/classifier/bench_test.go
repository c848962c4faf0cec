package classifier

import (
	"fmt"
	"math/rand"
	"repro/internal/bitset"
	"testing"
)

// benchClassifier returns a logistic-regression classifier at the serving
// daemon's dimensions (32-dim embedding + 512 hashed features) on the
// directions corpus at scale 0.5, its feature cache warm, and npos
// positives: the first gold positives (291 in all), topped up with the
// lowest-numbered other sentences.
func benchClassifier(b *testing.B, npos int) (*SentenceClassifier, bitset.Set) {
	b.Helper()
	c, emb := directionsCorpus(b, 0.5)
	gold := c.Positives()
	pos := bitset.FromSorted(gold[:min(npos, len(gold))]).Grow(c.Len())
	for id := 0; pos.Count() < npos; id++ {
		pos.Add(id)
	}
	sc := NewSentenceClassifier(c, emb, DefaultConfig())
	if err := sc.TrainFromPositives(pos); err != nil {
		b.Fatal(err)
	}
	sc.ScoreAll()
	return sc, pos
}

// activeHashed counts the hashed columns a fit trained, i.e. those with a
// nonzero weight: a column zero in every training example keeps weight +0.
func activeHashed(m *LogisticRegression, embDim int) int {
	n := 0
	for _, w := range m.weights[embDim:] {
		if w != 0 {
			n++
		}
	}
	return n
}

// BenchmarkClassifierFit measures one retraining round of an accepted
// answer, 10 SGD epochs over |P| positives plus 3|P| sampled negatives, at
// the solo workload's |P| (100) and a larger one (400). The directions
// vocabulary leaves most of the 512 hashed columns zero in every training
// example. The full-occupancy case trains through the dense Fit wrapper on
// 1,600 synthetic rows that make every one of those columns active, the
// input where skipping inactive columns cannot help.
func BenchmarkClassifierFit(b *testing.B) {
	for _, npos := range []int{100, 400} {
		b.Run(fmt.Sprintf("pos=%d", npos), func(b *testing.B) {
			sc, pos := benchClassifier(b, npos)
			b.ReportAllocs()
			for b.Loop() {
				sc.Reseed(1)
				if err := sc.TrainFromPositives(pos); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(activeHashed(sc.model, sc.feat.EmbDim())), "active-cols")
		})
	}
	b.Run("full-occupancy", func(b *testing.B) {
		const embDim, hashDim, perRow = 32, 512, 8
		rng := rand.New(rand.NewSource(1))
		X := make([][]float64, 1600)
		y := make([]int, len(X))
		for i := range X {
			x := make([]float64, embDim+hashDim)
			for d := range embDim {
				x[d] = rng.NormFloat64()
			}
			// Consecutive rows step through the hashed block, so every
			// column is nonzero in several rows.
			for k := range perRow {
				x[embDim+(i*perRow+k)%hashDim] += 1.0 / perRow
			}
			X[i] = x
			if i%4 == 0 {
				y[i] = 1
			}
		}
		m := NewLogisticRegression(DefaultConfig())
		b.ReportAllocs()
		for b.Loop() {
			if err := m.Fit(X, y); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(activeHashed(m, embDim)), "active-cols")
	})
}

// BenchmarkClassifierScoreAll measures rescoring the whole corpus (7,650
// sentences) after a retrain.
func BenchmarkClassifierScoreAll(b *testing.B) {
	sc, _ := benchClassifier(b, 400)
	b.ReportAllocs()
	for b.Loop() {
		sc.scored = false
		sc.ScoreAll()
	}
}
