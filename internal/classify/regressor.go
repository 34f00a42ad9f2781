package classify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ANNRegressor is the 3-layer feed-forward regression network the paper uses
// as the strongest unified-model baseline (Figure 9): one model that maps
// (features, input size) directly to a memory footprint, instead of
// selecting among expert curve families.
type ANNRegressor struct {
	// Hidden lists hidden-layer sizes (default []int{16, 8}).
	Hidden []int
	// Epochs is the number of SGD passes (default 600).
	Epochs int
	// LearningRate is the SGD step (default 0.01).
	LearningRate float64
	// Seed drives weight init and shuffling.
	Seed int64

	dim     int
	fitted  bool
	weights network
	std     standardizer
	// Target normalisation so training is well-conditioned regardless of
	// footprint scale.
	yMean, yStd float64
}

// RegSample is one regression observation.
type RegSample struct {
	X []float64
	Y float64
}

// NewANNRegressor returns an unfitted regression network.
func NewANNRegressor(seed int64) *ANNRegressor { return &ANNRegressor{Seed: seed} }

// Fit trains the network on the regression samples.
func (a *ANNRegressor) Fit(samples []RegSample) error {
	if len(samples) == 0 {
		return ErrNoSamples
	}
	a.dim = len(samples[0].X)
	if a.dim == 0 {
		return fmt.Errorf("%w: empty feature vector", ErrDimMismatch)
	}
	for i, s := range samples {
		if len(s.X) != a.dim {
			return fmt.Errorf("%w: sample %d", ErrDimMismatch, i)
		}
	}
	if len(a.Hidden) == 0 {
		a.Hidden = []int{16, 8}
	}
	if a.Epochs <= 0 {
		a.Epochs = 600
	}
	if a.LearningRate <= 0 {
		a.LearningRate = 0.01
	}
	// Normalise targets.
	var mean float64
	for _, s := range samples {
		mean += s.Y
	}
	mean /= float64(len(samples))
	var variance float64
	for _, s := range samples {
		d := s.Y - mean
		variance += d * d
	}
	variance /= float64(len(samples))
	a.yMean = mean
	a.yStd = math.Sqrt(variance)
	if a.yStd == 0 {
		a.yStd = 1
	}

	xs := make([]Sample, len(samples))
	for i, s := range samples {
		xs[i] = Sample{X: s.X}
	}
	a.std = fitStandardizer(xs, a.dim)
	rng := rand.New(rand.NewSource(a.Seed))
	sizes := append([]int{a.dim}, a.Hidden...)
	a.weights = newNetwork(append(sizes, 1), rng)
	sgd(rng, len(samples), a.Epochs, func(ix int) { a.step(samples[ix]) })
	a.fitted = true
	return nil
}

func (a *ANNRegressor) step(s RegSample) {
	acts := a.weights.forward(a.std.apply(s.X))
	pred := acts[len(acts)-1][0]
	target := (s.Y - a.yMean) / a.yStd
	a.weights.backprop(acts, []float64{pred - target}, a.LearningRate) // squared-error gradient
}

// ErrRegressorNotFitted is returned by Predict before Fit.
var ErrRegressorNotFitted = errors.New("classify: regressor not fitted")

// Predict returns the regressed value for x.
func (a *ANNRegressor) Predict(x []float64) (float64, error) {
	if !a.fitted {
		return 0, ErrRegressorNotFitted
	}
	if len(x) != a.dim {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), a.dim)
	}
	acts := a.weights.forward(a.std.apply(x))
	return acts[len(acts)-1][0]*a.yStd + a.yMean, nil
}
