package classifier

import (
	"errors"
	"math"
	"math/rand"
)

// Model is a binary probabilistic classifier over dense feature vectors.
type Model interface {
	// Fit trains the model on features X with binary labels y (0 or 1).
	Fit(X [][]float64, y []int) error
	// Proba returns P(label=1 | x).
	Proba(x []float64) float64
}

// sparseModel is a model SentenceClassifier trains and scores on cached
// sparse feature vectors of width dim.
type sparseModel interface {
	fitSparse(X []*sparseFeatures, y []int, dim int) error
	probaSparse(x *sparseFeatures) float64
}

// Config holds the shared hyperparameters for the trainable classifiers.
type Config struct {
	// Epochs is the number of SGD passes over the training set.
	Epochs int
	// LearningRate is the SGD step size.
	LearningRate float64
	// L2 is the L2 regularization strength.
	L2 float64
	// Hidden is the hidden-layer width (MLP only).
	Hidden int
	// Seed drives weight initialization and example shuffling.
	Seed int64
}

// DefaultConfig returns the hyperparameters used in the experiments.
func DefaultConfig() Config {
	return Config{Epochs: 10, LearningRate: 0.1, L2: 1e-4, Hidden: 16, Seed: 1}
}

// ErrNoTrainingData is returned by Fit when X is empty.
var ErrNoTrainingData = errors.New("classifier: no training data")

// ErrDimensionMismatch is returned when feature vectors have inconsistent
// lengths or labels do not align with features.
var ErrDimensionMismatch = errors.New("classifier: dimension mismatch")

// LogisticRegression is an L2-regularized logistic regression trained with
// SGD. The zero value is not usable; construct with NewLogisticRegression.
//
// Training and scoring run on sparse vectors (a dense prefix plus ascending
// (index, value) pairs), computing bit for bit what the textbook dense SGD
// computes over the full vector. A skipped zero entry contributes w·0 = ±0
// to a dot product whose running sum starts at +0, which leaves the sum
// unchanged; and the dense step w -= lr·(grad·0 + L2·w) equals the
// decay-only step w -= lr·(L2·w), which is applied to every such weight.
// A column that is zero in every training example therefore takes only
// decay steps, which keep its initial +0 at +0, so training skips it and
// leaves its weight +0. (All three hold while the weights stay finite.)
type LogisticRegression struct {
	cfg     Config
	weights []float64
	bias    float64
	trained bool
}

// NewLogisticRegression creates a logistic regression with the given config.
func NewLogisticRegression(cfg Config) *LogisticRegression {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	return &LogisticRegression{cfg: cfg}
}

// Fit trains the model. Labels must be 0 or 1.
func (m *LogisticRegression) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return ErrNoTrainingData
	}
	if len(X) != len(y) {
		return ErrDimensionMismatch
	}
	dim := len(X[0])
	sx := make([]*sparseFeatures, len(X))
	for i, x := range X {
		if len(x) != dim {
			return ErrDimensionMismatch
		}
		sx[i] = sparsify(x, 0)
	}
	return m.fitSparse(sx, y, dim)
}

// Proba returns P(y=1|x). An untrained model returns 0.5 (uninformative).
func (m *LogisticRegression) Proba(x []float64) float64 {
	if !m.trained || len(x) != len(m.weights) {
		return 0.5
	}
	return m.probaSparse(sparsify(x, 0))
}

// fitSparse trains the model on sparse examples of width dim, all with the
// same dense prefix width. SGD runs over the active columns only: the dense
// prefix plus every column nonzero in some example, mapped in order onto a
// compact weight vector so each example's indices stay ascending. The
// compact weights are then scattered back to full width; every inactive
// column keeps weight +0.
//
//darwin:replaypure
func (m *LogisticRegression) fitSparse(X []*sparseFeatures, y []int, dim int) error {
	if len(X) == 0 {
		return ErrNoTrainingData
	}
	prefix := len(X[0].emb)
	slot := make([]int32, dim) // column → nonzero when active, then its compact position
	nnz := 0
	for _, x := range X {
		for _, ix := range x.idx {
			slot[ix] = 1
		}
		nnz += len(x.idx)
	}
	cols := make([]int32, 0, dim-prefix) // compact position - prefix → column
	for c := prefix; c < dim; c++ {
		if slot[c] != 0 {
			slot[c] = int32(prefix + len(cols))
			cols = append(cols, int32(c))
		}
	}
	// idx[off[i]:off[i+1]] holds example i's indices in compact positions.
	idx := make([]int32, 0, nnz)
	off := make([]int, len(X)+1)
	for i, x := range X {
		for _, ix := range x.idx {
			idx = append(idx, slot[ix])
		}
		off[i+1] = len(idx)
	}

	w := make([]float64, prefix+len(cols))
	m.bias = 0
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	lr, l2 := m.cfg.LearningRate, m.cfg.L2
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x := &sparseFeatures{emb: X[i].emb, idx: idx[off[i]:off[i+1]], val: X[i].val}
			grad := sigmoid(logit(w, m.bias, x)) - float64(y[i])
			// Every weight steps from its old value, so the update order
			// is free: the dense prefix, then each nonzero entry with the
			// decay-only run of zero entries before it, then the tail.
			emb := w[:len(x.emb)]
			for d, xd := range x.emb {
				emb[d] -= lr * (grad*xd + l2*emb[d])
			}
			next := len(x.emb)
			for k, ix := range x.idx {
				decay(w[next:ix], lr, l2)
				w[ix] -= lr * (grad*x.val[k] + l2*w[ix])
				next = int(ix) + 1
			}
			decay(w[next:], lr, l2)
			m.bias -= lr * grad
		}
	}
	m.weights = make([]float64, dim)
	copy(m.weights, w[:prefix])
	for k, c := range cols {
		m.weights[c] = w[prefix+k]
	}
	m.trained = true
	return nil
}

// decay applies the SGD step of a zero feature, w -= lr·(L2·w), to every
// weight in w. It is deliberately not folded into w *= 1-lr·L2, which rounds
// differently. On the directions corpus 31–47% of a fit is spent here (400
// and 100 positives); unrolling by four, which leaves each weight's
// arithmetic unchanged, makes a fit about 10% faster.
//
//darwin:replaypure
func decay(w []float64, lr, l2 float64) {
	for len(w) >= 4 {
		w[0] -= lr * (l2 * w[0])
		w[1] -= lr * (l2 * w[1])
		w[2] -= lr * (l2 * w[2])
		w[3] -= lr * (l2 * w[3])
		w = w[4:]
	}
	for d := range w {
		w[d] -= lr * (l2 * w[d])
	}
}

// probaSparse returns P(y=1|x) for a sparse vector of the trained width.
func (m *LogisticRegression) probaSparse(x *sparseFeatures) float64 {
	if !m.trained {
		return 0.5
	}
	return sigmoid(logit(m.weights, m.bias, x))
}

// logit returns w·x + b, summing the dense prefix and then the nonzero
// entries in ascending index order — the dense dot product's order with its
// zero terms left out.
func logit(w []float64, b float64, x *sparseFeatures) float64 {
	var s float64
	emb := w[:len(x.emb)]
	for d, xd := range x.emb {
		s += emb[d] * xd
	}
	for k, ix := range x.idx {
		s += w[ix] * x.val[k]
	}
	return s + b
}

func sigmoid(z float64) float64 {
	if z > 30 {
		return 1
	}
	if z < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
