package classify

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a feed-forward neural-network classifier trained with
// backpropagation (SGD, tanh hidden units, softmax output, cross-entropy
// loss). The paper's Table 5 evaluates two variants: "MLP" (one hidden
// layer) and "ANN" (the 3-layer network also used as the unified-model
// regressor in Figure 9); both are expressed by Hidden.
type MLP struct {
	// Hidden lists hidden-layer sizes, e.g. []int{16} or []int{16, 8}.
	Hidden []int
	// Epochs is the number of SGD passes (default 400).
	Epochs int
	// LearningRate is the SGD step (default 0.05).
	LearningRate float64
	// Seed drives weight init and sample shuffling.
	Seed int64
	// DisplayName overrides Name() in reports (e.g. "ANN" vs "MLP").
	DisplayName string

	dim     int
	fitted  bool
	labels  []int
	labelIx map[int]int
	weights network
	std     standardizer
}

// NewMLP returns an unfitted MLP with the given hidden layout.
func NewMLP(hidden []int, seed int64) *MLP {
	return &MLP{Hidden: hidden, Seed: seed}
}

var _ Classifier = (*MLP)(nil)

// Name implements Classifier.
func (m *MLP) Name() string {
	if m.DisplayName != "" {
		return m.DisplayName
	}
	return fmt.Sprintf("MLP%v", m.Hidden)
}

// Fit implements Classifier.
func (m *MLP) Fit(samples []Sample) error {
	dim, labels, err := checkSamples(samples)
	if err != nil {
		return err
	}
	if len(labels) < 2 {
		return ErrSingleClass
	}
	if m.Epochs <= 0 {
		m.Epochs = 400
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 0.05
	}
	if len(m.Hidden) == 0 {
		m.Hidden = []int{16}
	}
	m.dim = dim
	m.labels = labels
	m.labelIx = make(map[int]int, len(labels))
	for i, l := range labels {
		m.labelIx[l] = i
	}
	m.std = fitStandardizer(samples, dim)
	rng := rand.New(rand.NewSource(m.Seed))
	sizes := append([]int{dim}, m.Hidden...)
	m.weights = newNetwork(append(sizes, len(labels)), rng)
	sgd(rng, len(samples), m.Epochs, func(ix int) { m.backprop(samples[ix]) })
	m.fitted = true
	return nil
}

// forward runs the network on a raw input, returning every layer's
// activations; the last entry holds the class probabilities.
func (m *MLP) forward(x []float64) [][]float64 {
	acts := m.weights.forward(m.std.apply(x))
	softmaxInPlace(acts[len(acts)-1])
	return acts
}

func softmaxInPlace(v []float64) {
	maxV := v[0]
	for _, x := range v[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		v[i] = math.Exp(x - maxV)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
}

func (m *MLP) backprop(s Sample) {
	acts := m.forward(s.X)
	out := acts[len(acts)-1]
	// Softmax + cross-entropy gradient: delta = p - onehot.
	delta := make([]float64, len(out))
	copy(delta, out)
	delta[m.labelIx[s.Label]] -= 1
	m.weights.backprop(acts, delta, m.LearningRate)
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) (int, error) {
	if !m.fitted {
		return 0, ErrNotFitted
	}
	if len(x) != m.dim {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), m.dim)
	}
	out := m.forward(x)
	probs := out[len(out)-1]
	best, bestP := 0, probs[0]
	for i, p := range probs[1:] {
		if p > bestP {
			best, bestP = i+1, p
		}
	}
	return m.labels[best], nil
}
