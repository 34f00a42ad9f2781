// Package classify implements the supervised classifiers the paper evaluates
// as expert selectors (Table 5): K-nearest neighbours (the selector the
// system ships with), Gaussian Naive Bayes, a CART decision tree, random
// forests, a multi-layer perceptron, a one-vs-rest linear SVM — plus the
// feed-forward ANN regressor used by the unified-model baseline (Figure 9).
//
// All models operate on small dense float64 vectors (the principal
// components produced by the features pipeline) and integer class labels.
package classify

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"moespark/internal/parallel"
)

// Sample is one labelled training observation.
type Sample struct {
	X     []float64
	Label int
}

// Classifier is a trainable multi-class classifier.
type Classifier interface {
	// Name identifies the classifier in reports.
	Name() string
	// Fit trains on the labelled samples. It may be called again to retrain.
	Fit(samples []Sample) error
	// Predict returns the predicted label for x.
	Predict(x []float64) (int, error)
}

// Common errors shared by the classifier implementations.
var (
	ErrNotFitted    = errors.New("classify: model not fitted")
	ErrNoSamples    = errors.New("classify: no training samples")
	ErrDimMismatch  = errors.New("classify: feature dimension mismatch")
	ErrSingleClass  = errors.New("classify: training set has a single class")
	ErrInvalidParam = errors.New("classify: invalid hyper-parameter")
)

// checkSamples validates a training set and returns its feature dimension
// and the sorted distinct labels.
func checkSamples(samples []Sample) (dim int, labels []int, err error) {
	if len(samples) == 0 {
		return 0, nil, ErrNoSamples
	}
	dim = len(samples[0].X)
	if dim == 0 {
		return 0, nil, fmt.Errorf("%w: empty feature vector", ErrDimMismatch)
	}
	seen := map[int]bool{}
	for i, s := range samples {
		if len(s.X) != dim {
			return 0, nil, fmt.Errorf("%w: sample %d has dim %d, want %d", ErrDimMismatch, i, len(s.X), dim)
		}
		seen[s.Label] = true
	}
	labels = make([]int, 0, len(seen))
	//moevet:allow maporder collected labels are sorted immediately below
	for l := range seen {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	return dim, labels, nil
}

// standardizer rescales inputs to zero mean / unit variance. The
// gradient-trained models (MLP, SVM, ANN regressor) fit one on their
// training inputs so that learning is well-conditioned at any feature scale.
type standardizer struct {
	mean, std []float64
}

func fitStandardizer(samples []Sample, dim int) standardizer {
	s := standardizer{mean: make([]float64, dim), std: make([]float64, dim)}
	for _, sm := range samples {
		for j, x := range sm.X {
			s.mean[j] += x
		}
	}
	n := float64(len(samples))
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, sm := range samples {
		for j, x := range sm.X {
			d := x - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s
}

func (s standardizer) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// LeaveOneOutAccuracyParallel evaluates a classifier factory with
// leave-one-out cross-validation, the protocol the paper uses for Table 5
// and Figure 17, fanned out over a pool of workers. The factory must return
// a fresh, unfitted classifier on every call. Folds are independent — every
// factory call returns a fresh classifier with its own seeded rng — so the
// accuracy is identical to the serial evaluation for any worker count.
// workers <= 1 runs serially.
func LeaveOneOutAccuracyParallel(factory func() Classifier, samples []Sample, workers int) (float64, error) {
	if len(samples) < 2 {
		return 0, ErrNoSamples
	}
	fold := func(i int) (bool, error) {
		train := make([]Sample, 0, len(samples)-1)
		train = append(train, samples[:i]...)
		train = append(train, samples[i+1:]...)
		c := factory()
		if err := c.Fit(train); err != nil {
			return false, fmt.Errorf("classify: LOOCV fold %d: %w", i, err)
		}
		pred, err := c.Predict(samples[i].X)
		if err != nil {
			return false, fmt.Errorf("classify: LOOCV fold %d predict: %w", i, err)
		}
		return pred == samples[i].Label, nil
	}
	hits := make([]bool, len(samples))
	if err := parallel.ForEachIndexed(workers, len(samples), func(i int) error {
		ok, err := fold(i)
		if err != nil {
			return err
		}
		hits[i] = ok
		return nil
	}); err != nil {
		return 0, err
	}
	correct := 0
	for _, ok := range hits {
		if ok {
			correct++
		}
	}
	return float64(correct) / float64(len(samples)), nil
}
