// Package classifier provides the probabilistic short-text classifiers that
// Darwin uses to estimate p_s — the probability that a sentence is a positive
// instance — which drives the benefit score of candidate heuristics.
//
// The paper uses a Kim-2014 convolutional network over stacked word
// embeddings. The classifier's only role in Darwin is to produce calibrated
// positive probabilities that are better than random and that generalize
// across semantically related sentences; this package substitutes a logistic
// regression over a feature vector that combines the corpus-trained sentence
// embedding with hashed bag-of-words features. It satisfies the (θ, β, β')
// classifier model used in the paper's analysis.
package classifier

import (
	"hash/fnv"

	"repro/internal/embedding"
)

// Featurizer converts token sequences into dense feature vectors. It combines
// the sentence embedding (semantic generalization) with a hashed bag-of-words
// block (memorization of discriminative tokens such as "shuttle").
type Featurizer struct {
	emb     *embedding.Model
	hashDim int
	embDim  int
}

// NewFeaturizer creates a Featurizer. emb may be nil, in which case only the
// hashed bag-of-words block is used. hashDim controls the size of the hashed
// block (0 uses a default of 512).
func NewFeaturizer(emb *embedding.Model, hashDim int) *Featurizer {
	if hashDim <= 0 {
		hashDim = 512
	}
	embDim := 0
	if emb != nil {
		embDim = emb.Dim()
	}
	return &Featurizer{emb: emb, hashDim: hashDim, embDim: embDim}
}

// Dim returns the dimensionality of the produced feature vectors.
func (f *Featurizer) Dim() int { return f.embDim + f.hashDim }

// EmbDim returns the dimensionality of the embedding block (0 without an
// embedding model).
func (f *Featurizer) EmbDim() int { return f.embDim }

// Features returns the feature vector of a tokenized sentence.
func (f *Featurizer) Features(tokens []string) []float64 {
	out := make([]float64, f.Dim())
	if f.emb != nil {
		copy(out, f.emb.SentenceVector(tokens))
	}
	if len(tokens) == 0 {
		return out
	}
	// Hashed bag of words, L1-normalized over the hashed block.
	inv := 1.0 / float64(len(tokens))
	for _, tok := range tokens {
		h := fnv.New32a()
		h.Write([]byte(tok))
		idx := int(h.Sum32()) % f.hashDim
		if idx < 0 {
			idx += f.hashDim
		}
		out[f.embDim+idx] += inv
	}
	return out
}

// FeaturesBatch featurizes many sentences at once.
func (f *Featurizer) FeaturesBatch(sentences [][]string) [][]float64 {
	out := make([][]float64, len(sentences))
	for i, s := range sentences {
		out[i] = f.Features(s)
	}
	return out
}

// sparseFeatures is a feature vector in sparse form: a dense prefix (the
// embedding block) plus (index, value) pairs, in ascending index order, for
// the nonzero entries after it.
type sparseFeatures struct {
	emb []float64
	idx []int32
	val []float64
}

// sparsify converts a dense vector into sparse form, keeping the first
// prefix entries dense.
func sparsify(full []float64, prefix int) *sparseFeatures {
	sf := &sparseFeatures{}
	if prefix > 0 {
		sf.emb = append([]float64(nil), full[:prefix]...)
	}
	for i := prefix; i < len(full); i++ {
		if full[i] != 0 {
			sf.idx = append(sf.idx, int32(i))
			sf.val = append(sf.val, full[i])
		}
	}
	return sf
}
