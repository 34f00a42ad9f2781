package moe

import (
	"moespark/internal/features"
	"moespark/internal/memfunc"
)

// Outcome classifies how an observed footprint became known to the system.
type Outcome int

// Observation outcomes.
const (
	// OutcomeCompleted: the executor ran to completion; its true footprint
	// was realised in full.
	OutcomeCompleted Outcome = iota + 1
	// OutcomeOOM: the executor was killed for overflowing its node's memory;
	// the prediction the placement was admitted on was too low.
	OutcomeOOM
)

// Observation is one predicted-vs-actual footprint outcome fed back into a
// Predictor: the engine learned an executor's true memory demand (at
// completion or OOM kill) and reports it against what the model predicted
// for the same data allocation.
type Observation struct {
	// Features is the runtime feature vector the prediction was made from.
	Features features.Vector
	// PCs is the application's position in the model's reduced feature
	// space (from the Selection), where gate self-training plants corrected
	// samples.
	PCs []float64
	// Family is the expert the gate selected for the application (the
	// routing decision the error window and teaching judge).
	Family memfunc.Family
	// Calibrated is the family of the curve that actually produced the
	// prediction — usually Family, but the fallback family when the
	// profiling points were infeasible for the selected expert. The
	// coefficient recalibration is keyed by it: a correction learned from
	// one curve shape's predictions must only ever be applied to that
	// shape.
	Calibrated memfunc.Family
	// AppID identifies the application uniquely for the lifetime of the
	// predictor (the MoE estimator issues a fresh sequence number per
	// prepared app, never reused across runs), so a predictor can act once
	// per app when it completes with several executors.
	AppID int
	// P1, P2 are the two profiling observations the prediction was
	// calibrated from; adaptive predictors re-calibrate alternative experts
	// through them when deciding whether the gate routed the app wrongly.
	P1, P2 memfunc.Point
	// ItemsGB is the data allocation the executor was responsible for.
	ItemsGB float64
	// PredictedGB is the footprint the scheduler planned with (after any
	// online recalibration) — the operative prediction whose error the gate
	// should judge experts by.
	PredictedGB float64
	// RawPredictedGB is the pure two-point calibration's footprint for the
	// same allocation, the stable regression target for coefficient
	// recalibration (correcting corrected values would chase a moving fix
	// point).
	RawPredictedGB float64
	// ActualGB is the true footprint from the workload ground truth.
	ActualGB float64
	// Outcome records how the footprint became known.
	Outcome Outcome
}

// Predictor is the online prediction pipeline the scheduler consumes instead
// of a concrete model: Predict produces a calibrated memory function for an
// application's runtime features and two profiling observations, and Observe
// feeds each predicted-vs-actual outcome back so adaptive implementations
// can recalibrate mid-stream. The static paper model is the Observe-is-a-no-op
// special case (Static); Adaptive recalibrates expert coefficients and
// reweights the gate from the observations.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict selects an expert for the features and calibrates it with the
	// two profiling observations (the paper's 5 %/10 % runs).
	Predict(raw features.Vector, p1, p2 memfunc.Point) (Prediction, error)
	// Observe feeds one realised footprint back into the predictor.
	Observe(Observation)
}

// Static adapts a trained Model into the Predictor interface with no
// adaptation: Predict is exactly Model.Predict and Observe is a no-op. It is
// the default predictor behind the paper's MoE scheme, bit-for-bit identical
// to calling the model directly.
type Static struct {
	model *Model
}

var _ Predictor = Static{}

// NewStatic wraps a trained model as a non-adaptive Predictor.
func NewStatic(m *Model) Static { return Static{model: m} }

// Name implements Predictor.
func (Static) Name() string { return "MoE-static" }

// Predict implements Predictor.
func (s Static) Predict(raw features.Vector, p1, p2 memfunc.Point) (Prediction, error) {
	return s.model.Predict(raw, p1, p2)
}

// Observe implements Predictor as a no-op.
func (Static) Observe(Observation) {}
