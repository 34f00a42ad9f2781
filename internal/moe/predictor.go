package moe

import (
	"moespark/internal/features"
	"moespark/internal/memfunc"
)

// Predictor is the prediction pipeline the scheduler consumes instead of a
// concrete model: Predict produces a calibrated memory function for an
// application's runtime features and two profiling observations. A trained
// *Model is the paper's static predictor; a Learner also learns from
// realised footprints.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict selects an expert for the features and calibrates it with the
	// two profiling observations (the paper's 5 %/10 % runs).
	Predict(raw features.Vector, p1, p2 memfunc.Point) (Prediction, error)
}

// Learner is a Predictor that is told each executor's realised footprint,
// so it can recalibrate mid-stream (Adaptive).
type Learner interface {
	Predictor
	// Observe feeds one realised footprint back into the predictor.
	Observe(Observation)
}

// Observation is one executor's realised footprint, reported against the
// prediction its application was planned with (at completion or OOM kill).
type Observation struct {
	// Prediction is the application's prediction, shared by all of its
	// executors' observations. A Learner may mark it judged, so a decision
	// it takes once per application is taken once however many executors
	// report.
	Prediction *Prediction
	// ItemsGB is the data allocation the executor was responsible for.
	ItemsGB float64
	// ActualGB is the true footprint from the workload ground truth.
	ActualGB float64
}

var _ Predictor = (*Model)(nil)

// Name implements Predictor.
func (*Model) Name() string { return "MoE-static" }
