// Package sched implements the runtime system of Section 4: a job
// dispatcher that co-locates Spark executors on nodes with spare memory and
// CPU, driven by a pluggable memory estimator. The paper's comparative
// schemes are all expressed in this framework:
//
//	Isolated     — the baseline: one application at a time, full memory
//	Pairwise     — at most two apps per node, co-runner heap = all free memory
//	Quasar       — one monolithic learned model for every application
//	MoE          — the paper's mixture-of-experts predictor (this work)
//	Oracle       — ground-truth footprints, no profiling cost
//	OnlineSearch — no model; gradient probing of the input allocation
//	Unified*     — a single curve family (or ANN) for every application
package sched

import (
	"math"

	"moespark/internal/cluster"
	"moespark/internal/features"
	"moespark/internal/memfunc"
)

// Estimator plans profiling for an application and installs its memory
// prediction, a MemEstimate, into App.Estimate; the dispatcher reads it back
// with estimateOf. An app left without a usable estimate is placed with the
// conservative pairwise-style reservation.
type Estimator interface {
	// Prepare is invoked once at submission. It returns the profiling plan
	// charged to the coordinating node, and typically installs a
	// MemEstimate into app.Estimate.
	Prepare(app *cluster.App) cluster.ProfilePlan
}

// observingEstimator is an Estimator that consumes the engine's
// predicted-vs-actual footprint reports (the cluster.Observer flow): the
// dispatcher forwards each observed executor outcome so the estimator's
// model can recalibrate mid-stream. Observe is invoked once per executor
// whose true footprint became known (app completion or OOM kill); it must
// not mutate the cluster.
type observingEstimator interface {
	Observe(e *cluster.Executor, outcome cluster.ExecOutcome)
}

// MemEstimate predicts the memory footprint of one application's executor
// as a function of its data allocation.
//
// Almost every estimator's prediction is a concrete calibrated curve, so the
// estimate stores the memfunc.Func directly and evaluates it in methods —
// the historical design held two closures instead, which cost four heap
// allocations per prepared arrival on the admission hot path. Models with no
// closed-form curve (the ANN baseline) still install closures via
// closureEstimate.
type MemEstimate struct {
	// fn is the calibrated curve backing the closure-free fast path.
	fn    memfunc.Func
	hasFn bool

	// footprintFn/itemsFn are the closure fallback for curveless models.
	footprintFn func(x float64) float64
	itemsFn     func(budgetGB float64) float64

	// feedback carries the per-app context an observing estimator needs to
	// report predicted-vs-actual outcomes; nil for non-observing estimators.
	feedback *feedback
}

// funcEstimate wraps a calibrated curve into a MemEstimate without
// allocating anything.
func funcEstimate(fn memfunc.Func) MemEstimate { return MemEstimate{fn: fn, hasFn: true} }

// closureEstimate wraps arbitrary footprint/inversion functions into a
// MemEstimate, for models with no concrete curve.
func closureEstimate(footprint, items func(float64) float64) MemEstimate {
	return MemEstimate{footprintFn: footprint, itemsFn: items}
}

// Footprint returns the predicted footprint (GB) for x GB of items
// (out-of-domain inputs predict 0).
func (e MemEstimate) Footprint(x float64) float64 {
	if e.hasFn {
		y, err := e.fn.Eval(x)
		if err != nil {
			return 0
		}
		return y
	}
	return e.footprintFn(x)
}

// Items returns the largest allocation whose predicted footprint stays
// within the budget (may be +Inf for bounded curves; 0 when the budget is
// infeasible).
func (e MemEstimate) Items(budgetGB float64) float64 {
	if e.hasFn {
		x, err := e.fn.Invert(budgetGB)
		if err != nil {
			return 0
		}
		return x
	}
	return e.itemsFn(budgetGB)
}

// valid reports whether the estimate can answer queries.
func (e MemEstimate) valid() bool {
	return e.hasFn || (e.footprintFn != nil && e.itemsFn != nil)
}

// feedback is the per-app observation context the MoE estimator stores
// alongside its estimate: the features and reduced-space position the
// prediction was made from, the expert the gate selected, the two profiling
// points it was calibrated through, and the uncorrected calibration for the
// stable regression target.
type feedback struct {
	features   features.Vector
	pcs        []float64
	family     memfunc.Family // the gate's routing decision
	calibrated memfunc.Family // the curve family that made the prediction
	p1, p2     memfunc.Point
	// raw is the uncorrected two-point calibration, stored as the concrete
	// curve (a closure here was one of the per-arrival allocations).
	raw memfunc.Func
	// seq is the estimator-issued app sequence number: unique for the
	// predictor's lifetime, unlike cluster app IDs, which restart at 0 when
	// a scheduler is reused on a fresh cluster.
	seq int
}

// rawPredict evaluates the uncorrected calibration (0 out of domain).
func (f *feedback) rawPredict(x float64) float64 {
	y, err := f.raw.Eval(x)
	if err != nil {
		return 0
	}
	return y
}

// estimateOf retrieves a MemEstimate installed by Prepare.
func estimateOf(app *cluster.App) (MemEstimate, bool) {
	est, ok := app.Estimate.(MemEstimate)
	if !ok || !est.valid() {
		return MemEstimate{}, false
	}
	return est, true
}

// invertByBisection numerically inverts a monotone-ish footprint function on
// (0, hi]. It is used by estimators whose model has no closed-form inverse
// (the ANN). If even the smallest probe exceeds the budget it returns 0.
func invertByBisection(footprint func(float64) float64, budgetGB, hi float64) float64 {
	const lo = 1e-3
	if budgetGB <= 0 {
		return 0
	}
	if footprint(hi) <= budgetGB {
		return hi
	}
	if footprint(lo) > budgetGB {
		return 0
	}
	a, b := lo, hi
	for i := 0; i < 80; i++ {
		mid := (a + b) / 2
		if footprint(mid) <= budgetGB {
			a = mid
		} else {
			b = mid
		}
	}
	return a
}

// clampItems bounds an allocation into [0, remaining].
func clampItems(x, remaining float64) float64 {
	if math.IsInf(x, 1) || x > remaining {
		return remaining
	}
	if x < 0 {
		return 0
	}
	return x
}
