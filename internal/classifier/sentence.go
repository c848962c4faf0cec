package classifier

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/obs"
)

// Classifier telemetry: the feature cache's hit ratio is what makes
// concurrent sessions affordable (a miss featurizes a sentence from scratch),
// and Fit is the per-accept retraining cost.
var (
	featureCacheHits = obs.Default().Counter("darwin_classifier_feature_cache_hits_total",
		"Feature-vector lookups served from the sparse feature cache.")
	featureCacheMisses = obs.Default().Counter("darwin_classifier_feature_cache_misses_total",
		"Feature-vector lookups that featurized the sentence from scratch.")
	fitsTotal = obs.Default().Counter("darwin_classifier_fits_total",
		"Classifier training rounds (one per accepted rule).")
	fitDurations = obs.Default().Histogram("darwin_classifier_fit_duration_seconds",
		"Latency of one classifier training round (feature lookup + model fit).",
		obs.LatencyBuckets)
)

// SentenceClassifier wraps a featurizer and a logistic regression and exposes
// the exact interface Darwin needs: retrain from the set of discovered
// positive instances (sampling random corpus sentences as negatives, as
// described in §3.3 of the paper) and score every sentence with p_s.
type SentenceClassifier struct {
	corp *corpus.Corpus
	feat *Featurizer
	cfg  Config
	rng  *rand.Rand

	// NegativeFactor controls how many random negatives are sampled per
	// positive training example (default 3).
	NegativeFactor int

	model  *LogisticRegression
	scores []float64
	scored bool

	// negSeen marks the sentences drawn as negatives in the current
	// training round. It is reused across rounds: each round grows it to
	// the corpus and clears it.
	negSeen bitset.Set

	// cache holds each sentence's feature vector in sparse form, the form
	// the model trains and scores on. By default it is private to this
	// classifier; classifiers over one shared corpus and embedding model
	// should share a single cache via ShareFeatureCache so concurrent
	// sessions do not each featurize the whole corpus.
	cache *FeatureCache
}

// FeatureCache caches per-sentence sparse feature vectors. Entries are
// immutable once published and slots are atomic pointers, so any number of
// classifiers may read and fill the cache concurrently (a racing fill
// recomputes the identical deterministic entry — slot claim is a CAS, first
// store wins). The cache depends only on the corpus tokens, the embedding
// model and the hash dimension, all immutable after engine construction, so
// one cache is shared at corpus level across every session of an engine.
//
// An optional entry cap bounds memory on large corpora (each entry costs
// roughly 0.5 KB): once cap entries are published, later sentences are
// featurized on the fly instead of cached. Cached or not, the produced
// vectors are bit-identical, so a cap never changes scores.
type FeatureCache struct {
	slots []atomic.Pointer[sparseFeatures]
	cap   int64
	count atomic.Int64
}

// NewFeatureCache creates an unbounded cache for a corpus of n sentences.
func NewFeatureCache(n int) *FeatureCache {
	return &FeatureCache{slots: make([]atomic.Pointer[sparseFeatures], n)}
}

// NewFeatureCacheCapped creates a cache holding at most maxEntries entries
// (non-positive means unbounded).
func NewFeatureCacheCapped(n, maxEntries int) *FeatureCache {
	fc := NewFeatureCache(n)
	fc.cap = int64(maxEntries)
	return fc
}

// Len returns the number of published entries.
func (fc *FeatureCache) Len() int { return int(fc.count.Load()) }

// get returns the cached entry for a sentence, or nil. Sentences beyond the
// cache's slot range (ingested after the cache was sized at boot) are never
// cached and always featurize on the fly.
func (fc *FeatureCache) get(id int) *sparseFeatures {
	if id < 0 || id >= len(fc.slots) {
		return nil
	}
	return fc.slots[id].Load()
}

// put publishes an entry for a sentence unless the entry cap is reached.
// The count is claimed before the slot CAS (and released on a lost race or
// a full cache), so the published-entry count never exceeds the cap even
// under concurrent fills.
func (fc *FeatureCache) put(id int, sf *sparseFeatures) {
	if id < 0 || id >= len(fc.slots) {
		return
	}
	if fc.cap > 0 {
		if fc.count.Add(1) > fc.cap {
			fc.count.Add(-1)
			return
		}
		if !fc.slots[id].CompareAndSwap(nil, sf) {
			fc.count.Add(-1) // another classifier published this slot first
		}
		return
	}
	if fc.slots[id].CompareAndSwap(nil, sf) {
		fc.count.Add(1)
	}
}

// NewSentenceClassifier creates a classifier over the given corpus. emb may
// be nil to disable embedding features. The corpus must be preprocessed
// (tokens available).
func NewSentenceClassifier(c *corpus.Corpus, emb *embedding.Model, cfg Config) *SentenceClassifier {
	return &SentenceClassifier{
		corp:           c,
		feat:           NewFeaturizer(emb, 512),
		cfg:            cfg,
		rng:            rand.New(rand.NewSource(cfg.Seed + 17)),
		NegativeFactor: 3,
	}
}

// Reseed resets the negative-sampling RNG to a fresh stream derived from
// seed. Replayable drivers (multi-annotator workspaces) call it before every
// training round with a seed derived from their event sequence, making each
// retrain a pure function of (positives, seed) — independent of how many
// retrains ran before — so snapshot-restored state retrains identically to
// a live process.
func (sc *SentenceClassifier) Reseed(seed int64) {
	sc.rng = rand.New(rand.NewSource(seed))
}

// ShareFeatureCache replaces the classifier's private feature cache with a
// shared one (created by NewFeatureCache for the same corpus). Call before
// the first training round.
func (sc *SentenceClassifier) ShareFeatureCache(fc *FeatureCache) {
	if fc != nil && len(fc.slots) <= sc.corp.Len() {
		sc.cache = fc
	}
}

// features returns sentence id's sparse feature vector, featurizing it and
// populating the cache on first use. The result is shared and read-only.
func (sc *SentenceClassifier) features(id int) *sparseFeatures {
	if sc.cache == nil {
		sc.cache = NewFeatureCache(sc.corp.Len())
	}
	if sf := sc.cache.get(id); sf != nil {
		featureCacheHits.Inc()
		return sf
	}
	featureCacheMisses.Inc()
	sf := sparsify(sc.feat.Features(sc.corp.Sentence(id).Tokens), sc.feat.EmbDim())
	sc.cache.put(id, sf)
	return sf
}

// TrainFromPositives retrains the classifier on the positive set P (ids
// beyond the corpus are ignored) and randomly sampled negatives (skipping
// known positives). It invalidates the cached scores.
func (sc *SentenceClassifier) TrainFromPositives(positives bitset.Set) error {
	pos := positives.AppendTo(nil)
	if len(pos) == 0 {
		return fmt.Errorf("classifier: %w", ErrNoTrainingData)
	}
	fitsTotal.Inc()
	defer fitDurations.ObserveSince(time.Now())
	n := sc.corp.Len()
	for len(pos) > 0 && pos[len(pos)-1] >= n {
		pos = pos[:len(pos)-1]
	}
	X := make([]*sparseFeatures, 0, len(pos)*(1+sc.NegativeFactor))
	y := make([]int, 0, cap(X))
	for _, id := range pos {
		X = append(X, sc.features(id))
		y = append(y, 1)
	}
	// Sample negatives uniformly from the rest of the corpus. In imbalanced
	// corpora a uniform sample is overwhelmingly negative, matching the
	// paper's procedure.
	wantNeg := len(X) * sc.NegativeFactor
	if wantNeg < 8 {
		wantNeg = 8
	}
	sc.negSeen = sc.negSeen.Grow(n)
	sc.negSeen.Clear()
	for negs, tries := 0, 0; negs < wantNeg && tries < wantNeg*20; {
		tries++
		id := sc.rng.Intn(n)
		if positives.Contains(id) || sc.negSeen.Contains(id) {
			continue
		}
		sc.negSeen.Add(id)
		negs++
		X = append(X, sc.features(id))
		y = append(y, 0)
	}
	model := NewLogisticRegression(sc.cfg)
	if err := model.fitSparse(X, y, sc.feat.Dim()); err != nil {
		return fmt.Errorf("classifier: fit: %w", err)
	}
	sc.model = model
	sc.scored = false
	return nil
}

// Refit is the retraining step of an accepted answer (Algorithm 1, lines
// 11-12): it retrains on the positive set P and refreshes scores — the
// caller's p_s vector — in place. rounds counts the caller's successful
// refits and is incremented by this one. The first round and every third one
// rescore the whole corpus; in between, with lazy set, only sentences in P or
// whose previous score exceeds thr are rescored (the §4.5 lazy re-scoring
// optimization). A failed fit returns its error
// and leaves the model, scores and rounds as they were.
func (sc *SentenceClassifier) Refit(positives bitset.Set, scores []float64, rounds *int, lazy bool, thr float64) error {
	if err := sc.TrainFromPositives(positives); err != nil {
		return err
	}
	*rounds++
	if !lazy || *rounds%3 == 1 {
		copy(scores, sc.ScoreAll())
		return nil
	}
	n := min(len(scores), sc.corp.Len())
	for id, p := range scores[:n] {
		if p > thr || positives.Contains(id) {
			scores[id] = sc.model.probaSparse(sc.features(id))
		}
	}
	return nil
}

// Trained reports whether the classifier has been trained at least once.
func (sc *SentenceClassifier) Trained() bool { return sc.model != nil }

// Score returns p_s for the sentence with the given ID. Before the first
// training round every sentence scores 0.5.
func (sc *SentenceClassifier) Score(id int) float64 {
	if sc.model == nil {
		return 0.5
	}
	sc.ensureScores()
	if id < 0 || id >= len(sc.scores) {
		return 0.5
	}
	return sc.scores[id]
}

// ScoreAll returns p_s for every sentence in corpus order. The returned slice
// is owned by the classifier and must not be modified.
func (sc *SentenceClassifier) ScoreAll() []float64 {
	sc.ensureScores()
	return sc.scores
}

func (sc *SentenceClassifier) ensureScores() {
	if sc.scored && len(sc.scores) >= sc.corp.Len() {
		return
	}
	if len(sc.scores) < sc.corp.Len() {
		grown := make([]float64, sc.corp.Len())
		copy(grown, sc.scores)
		sc.scores = grown
	}
	for id := 0; id < sc.corp.Len(); id++ {
		if sc.model == nil {
			sc.scores[id] = 0.5
			continue
		}
		sc.scores[id] = sc.model.probaSparse(sc.features(id))
	}
	sc.scored = true
}

// ScoreOne computes p_s for a single sentence directly, without building or
// refreshing the full score cache. It is used by the engine's lazy re-scoring
// optimization (§4.5: only re-evaluate sentences whose previous confidence
// exceeded 0.3).
func (sc *SentenceClassifier) ScoreOne(id int) float64 {
	if sc.model == nil || id < 0 || id >= sc.corp.Len() {
		return 0.5
	}
	return sc.model.probaSparse(sc.features(id))
}

// PredictPositive returns the IDs of all sentences with p_s >= threshold.
func (sc *SentenceClassifier) PredictPositive(threshold float64) []int {
	sc.ensureScores()
	var out []int
	for id, p := range sc.scores {
		if p >= threshold {
			out = append(out, id)
		}
	}
	return out
}

// Entropy returns the binary entropy of the prediction for a sentence, the
// uncertainty measure used by the Active Learning baseline.
func (sc *SentenceClassifier) Entropy(id int) float64 {
	p := sc.Score(id)
	return binaryEntropy(p)
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -(p*math.Log2(p) + (1-p)*math.Log2(1-p))
}
