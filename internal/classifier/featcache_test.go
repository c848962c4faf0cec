package classifier

import (
	"repro/internal/bitset"
	"sync"
	"testing"

	"repro/internal/corpus"
)

func capTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	texts := []string{
		"best way to get to the airport",
		"how do I reach the station",
		"the shuttle to downtown runs hourly",
		"directions to the museum please",
		"this sentence is about cooking pasta",
		"the weather is nice today",
		"take the bus to the terminal",
		"walking route to the harbor",
		"the recipe needs two eggs",
		"trains to the airport leave often",
		"what is the fastest way downtown",
		"the cat sat on the mat",
	}
	c := corpus.New("cap-test", "feature cache")
	for _, tx := range texts {
		c.Add(tx, corpus.Negative)
	}
	c.Preprocess(corpus.PreprocessOptions{})
	return c
}

// TestFeatureCacheCapIsBitIdentical pins the cap's contract: a capped cache
// changes memory use only — training and scoring stay bit-identical,
// because uncached sentences are featurized on the fly with the same
// deterministic featurizer.
func TestFeatureCacheCapIsBitIdentical(t *testing.T) {
	c := capTestCorpus(t)
	positives := bitset.FromSorted([]int{0, 1, 6, 9})

	score := func(cache *FeatureCache) []float64 {
		sc := NewSentenceClassifier(c, nil, Config{Epochs: 6, LearningRate: 0.3, Seed: 5})
		sc.ShareFeatureCache(cache)
		if err := sc.TrainFromPositives(positives); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), sc.ScoreAll()...)
	}

	full := score(NewFeatureCache(c.Len()))
	capped := NewFeatureCacheCapped(c.Len(), 3)
	got := score(capped)
	for i := range full {
		if full[i] != got[i] {
			t.Fatalf("score %d differs with capped cache: %v vs %v", i, full[i], got[i])
		}
	}
	if n := capped.Len(); n > 3 {
		t.Fatalf("capped cache holds %d entries, cap is 3", n)
	}
	if n := capped.Len(); n == 0 {
		t.Fatal("capped cache cached nothing")
	}
}

// TestFeatureCacheCapUnderConcurrentFills checks the CAS slot claim: racing
// classifiers sharing one capped cache never exceed the cap and never
// double-count a slot.
func TestFeatureCacheCapUnderConcurrentFills(t *testing.T) {
	c := capTestCorpus(t)
	const cap = 5
	cache := NewFeatureCacheCapped(c.Len(), cap)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewSentenceClassifier(c, nil, Config{Epochs: 2, LearningRate: 0.3, Seed: int64(w + 1)})
			sc.ShareFeatureCache(cache)
			if err := sc.TrainFromPositives(bitset.FromSorted([]int{0, 1})); err != nil {
				t.Error(err)
				return
			}
			sc.ScoreAll()
		}(w)
	}
	wg.Wait()
	if n := cache.Len(); n > cap {
		t.Fatalf("cache holds %d entries, cap is %d", n, cap)
	}
	filled := 0
	for i := range cache.slots {
		if cache.slots[i].Load() != nil {
			filled++
		}
	}
	if filled != cache.Len() {
		t.Fatalf("entry count %d does not match filled slots %d", cache.Len(), filled)
	}
}

// TestFeatureCacheUncappedFillsCorpus documents the default: without a cap
// the whole corpus ends up cached after a full scoring pass.
func TestFeatureCacheUncappedFillsCorpus(t *testing.T) {
	c := capTestCorpus(t)
	cache := NewFeatureCache(c.Len())
	sc := NewSentenceClassifier(c, nil, Config{Epochs: 2, LearningRate: 0.3, Seed: 1})
	sc.ShareFeatureCache(cache)
	if err := sc.TrainFromPositives(bitset.FromSorted([]int{0, 1})); err != nil {
		t.Fatal(err)
	}
	sc.ScoreAll()
	if cache.Len() != c.Len() {
		t.Fatalf("uncapped cache holds %d of %d entries", cache.Len(), c.Len())
	}
}
