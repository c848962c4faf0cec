package classifier

import (
	"math"
	"math/rand"
)

// MLP is a one-hidden-layer feed-forward network with tanh activations and a
// sigmoid output, trained with SGD. It is the closest stdlib-only stand-in
// for the paper's Kim-2014 CNN: both consume embedding-derived features and
// produce a positive-class probability.
type MLP struct {
	cfg     Config
	w1      [][]float64 // hidden x input
	b1      []float64
	w2      []float64 // hidden
	b2      float64
	trained bool
	// dense is the buffer probaSparse expands a sparse vector into.
	dense []float64
}

// NewMLP creates an MLP with the given config.
func NewMLP(cfg Config) *MLP {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 16
	}
	return &MLP{cfg: cfg}
}

// Fit trains the network. Labels must be 0 or 1.
func (m *MLP) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return ErrNoTrainingData
	}
	if len(X) != len(y) {
		return ErrDimensionMismatch
	}
	dim := len(X[0])
	for _, x := range X {
		if len(x) != dim {
			return ErrDimensionMismatch
		}
	}
	h := m.cfg.Hidden
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.w1 = make([][]float64, h)
	m.b1 = make([]float64, h)
	scale := 1.0 / math.Sqrt(float64(dim))
	for j := range m.w1 {
		m.w1[j] = make([]float64, dim)
		for d := range m.w1[j] {
			m.w1[j][d] = (rng.Float64()*2 - 1) * scale
		}
	}
	m.w2 = make([]float64, h)
	for j := range m.w2 {
		m.w2[j] = (rng.Float64()*2 - 1) / math.Sqrt(float64(h))
	}
	m.b2 = 0

	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}
	lr := m.cfg.LearningRate
	hidden := make([]float64, h)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			x := X[i]
			target := float64(y[i])
			// Forward.
			for j := 0; j < h; j++ {
				hidden[j] = math.Tanh(dot(m.w1[j], x) + m.b1[j])
			}
			out := sigmoid(dot(m.w2, hidden) + m.b2)
			// Backward (cross-entropy + sigmoid => delta = out - target).
			delta := out - target
			for j := 0; j < h; j++ {
				gradW2 := delta * hidden[j]
				// Backprop into hidden unit j.
				dh := delta * m.w2[j] * (1 - hidden[j]*hidden[j])
				m.w2[j] -= lr * (gradW2 + m.cfg.L2*m.w2[j])
				for d, xd := range x {
					m.w1[j][d] -= lr * (dh*xd + m.cfg.L2*m.w1[j][d])
				}
				m.b1[j] -= lr * dh
			}
			m.b2 -= lr * delta
		}
	}
	m.trained = true
	return nil
}

// Proba returns P(y=1|x). An untrained model returns 0.5.
func (m *MLP) Proba(x []float64) float64 {
	if !m.trained || len(m.w1) == 0 || len(x) != len(m.w1[0]) {
		return 0.5
	}
	h := len(m.w1)
	var z float64
	for j := 0; j < h; j++ {
		z += m.w2[j] * math.Tanh(dot(m.w1[j], x)+m.b1[j])
	}
	return sigmoid(z + m.b2)
}

// fitSparse trains the network on sparse examples, expanded to dense
// vectors of width dim: the MLP's hidden layer reads every input weight.
func (m *MLP) fitSparse(X []*sparseFeatures, y []int, dim int) error {
	dense := make([][]float64, len(X))
	for i, x := range X {
		dense[i] = x.densify(make([]float64, dim))
	}
	return m.Fit(dense, y)
}

// probaSparse returns P(y=1|x) for a sparse vector of the trained width.
func (m *MLP) probaSparse(x *sparseFeatures) float64 {
	if !m.trained || len(m.w1) == 0 {
		return 0.5
	}
	if m.dense == nil {
		m.dense = make([]float64, len(m.w1[0]))
	}
	return m.Proba(x.densify(m.dense))
}
