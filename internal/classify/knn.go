package classify

import (
	"fmt"

	"moespark/internal/mathx"
)

// KNN is the K-nearest-neighbours classifier the paper deploys as its expert
// selector. Beyond the Classifier interface it exposes the distance to the
// nearest neighbour, which the paper uses as a prediction-confidence signal
// (fall back to a conservative policy when the target program is far from
// every training program).
//
// Every query is one linear pass over the training set (see predict): the
// deployed gate holds the paper's 44 training programs plus the few samples
// an adaptive gate teaches it, too few for an index to pay.
type KNN struct {
	// K is the number of neighbours consulted; the paper effectively uses
	// the single nearest training program (K=1).
	K int

	dim     int
	fitted  bool
	samples []Sample
}

// NewKNN returns a KNN classifier with the given neighbourhood size.
func NewKNN(k int) *KNN { return &KNN{K: k} }

var _ Classifier = (*KNN)(nil)

// Name implements Classifier.
func (k *KNN) Name() string { return fmt.Sprintf("KNN(k=%d)", k.K) }

// Fit stores the training set (KNN is a lazy learner). One advantage the
// paper highlights: adding a new memory function requires no retraining,
// just new labelled samples.
func (k *KNN) Fit(samples []Sample) error {
	if k.K <= 0 {
		return fmt.Errorf("%w: K=%d", ErrInvalidParam, k.K)
	}
	dim, _, err := checkSamples(samples)
	if err != nil {
		return err
	}
	k.samples = make([]Sample, len(samples))
	copy(k.samples, samples)
	k.dim = dim
	k.fitted = true
	return nil
}

// Clone returns an independent copy of the classifier: mutations of either
// copy's training set (Add) never affect the other. Adaptive gates clone
// their selector before self-training so a shared trained model stays
// immutable.
func (k *KNN) Clone() *KNN {
	cp := *k
	cp.samples = make([]Sample, len(k.samples))
	copy(cp.samples, k.samples)
	return &cp
}

// Add inserts one more labelled sample without refitting anything else.
func (k *KNN) Add(s Sample) error {
	if !k.fitted {
		return ErrNotFitted
	}
	if len(s.X) != k.dim {
		return ErrDimMismatch
	}
	k.samples = append(k.samples, s)
	return nil
}

// Predict implements Classifier.
func (k *KNN) Predict(x []float64) (int, error) {
	label, _, err := k.PredictWithDistance(x)
	return label, err
}

// PredictWithDistance returns the majority label among the K nearest
// neighbours and the Euclidean distance to the single nearest one.
func (k *KNN) PredictWithDistance(x []float64) (label int, nearest float64, err error) {
	return k.predict(x, nil)
}

// PredictBiased is PredictWithDistance with per-label distance scaling, the
// online-gate hook of an adaptive mixture: each neighbour's distance is
// multiplied by bias(label) before ranking, so a label whose recent
// predictions have been poor (bias > 1) must be proportionally closer in
// feature space to win the vote. bias must return positive finite values; a
// nil bias reproduces PredictWithDistance exactly. The returned distance is
// the biased distance of the nearest neighbour under the scaling.
func (k *KNN) PredictBiased(x []float64, bias func(label int) float64) (label int, nearest float64, err error) {
	return k.predict(x, bias)
}

// neigh is one ranked neighbour: its (biased) distance and its label.
type neigh struct {
	dist  float64
	label int
}

// predict ranks the training samples by (optionally biased) distance in one
// pass and returns the majority label among the K nearest plus the distance
// to the single nearest. The K best so far are kept sorted in a stack buffer
// (the heap is used only when K > 4). A sample enters a full buffer only on
// a strictly smaller distance and is placed after every equal one, so equal
// distances keep insertion order: the first-inserted sample wins ties, a
// property the scheduler's golden tests depend on. Votes are counted inside
// the buffer, and a vote tie goes to the label met first in distance order.
// The query allocates nothing for K <= 4.
func (k *KNN) predict(x []float64, bias func(label int) float64) (label int, nearest float64, err error) {
	if !k.fitted {
		return 0, 0, ErrNotFitted
	}
	if len(x) != k.dim {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(x), k.dim)
	}
	kk := min(k.K, len(k.samples))
	var stack [4]neigh
	top := stack[:]
	if kk > len(stack) {
		top = make([]neigh, kk)
	}
	n := 0
	for _, s := range k.samples {
		d := mathx.Euclidean(x, s.X)
		if bias != nil {
			d *= bias(s.Label)
		}
		if n == kk {
			if !(d < top[kk-1].dist) {
				continue
			}
			n--
		}
		i := n
		for ; i > 0 && d < top[i-1].dist; i-- {
			top[i] = top[i-1]
		}
		top[i] = neigh{dist: d, label: s.Label}
		n++
	}
	best, bestVotes := top[0].label, 0
	for _, a := range top[:kk] {
		votes := 0
		for _, b := range top[:kk] {
			if b.label == a.label {
				votes++
			}
		}
		if votes > bestVotes {
			best, bestVotes = a.label, votes
		}
	}
	return best, top[0].dist, nil
}
