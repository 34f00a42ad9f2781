package sched

import (
	"math"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/memfunc"
	"moespark/internal/moe"
)

// Profiling volumes (GB). Feature extraction uses ~100MB of input (Section
// 2.3); the calibration runs use 5 % and 10 % of the input, capped so very
// large datasets keep the paper's <10 % profiling overhead (Figure 11).
const (
	featureProfileGB  = 0.1
	calibCap1         = 0.5 // GB
	calibCap2         = 2.0 // GB
	calibFrac1        = 0.05
	calibFrac2        = 0.10
	defaultMargin     = 0.05
	onlineSearchFrac  = 0.25
	onlineSearchCapGB = 40.0
)

func calibSizes(inputGB float64) (float64, float64) {
	s1 := math.Min(calibFrac1*inputGB, calibCap1)
	s2 := math.Min(calibFrac2*inputGB, calibCap2)
	if s1 <= 0 {
		s1 = 0.01
	}
	if s2 <= s1 {
		s2 = s1 * 2
	}
	return s1, s2
}

// NewIsolated returns the serial isolated-execution baseline.
func NewIsolated() *Dispatcher {
	return &Dispatcher{PolicyName: "Isolated", Serial: true}
}

// NewPairwise returns the pairwise co-location scheme: at most two
// applications per node, the co-runner's heap set to all free memory, no
// memory prediction.
func NewPairwise() *Dispatcher {
	return &Dispatcher{PolicyName: "Pairwise", MaxAppsPerNode: 2, ReserveAllFree: true}
}

// oracleEstimator uses the ground-truth curve with no profiling cost: the
// paper's ideal predictor.
type oracleEstimator struct{}

// NewOracle returns the Oracle scheme.
func NewOracle() *Dispatcher {
	return &Dispatcher{PolicyName: "Oracle", Est: oracleEstimator{}, CheckCPU: true}
}

func (oracleEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	app.Estimate = funcEstimate(app.Job.Bench.Truth)
	return cluster.ProfilePlan{}
}

// moeEstimator is the paper's runtime predictor generalised over the online
// prediction pipeline: feature extraction on a ~100MB slice, expert
// selection and two-point calibration happen behind the moe.Predictor
// interface, and every realised footprint the engine reports is fed back
// through it (a no-op for the static model, model recalibration for the
// adaptive one).
type moeEstimator struct {
	pred moe.Predictor
	rng  *rand.Rand
	// seq numbers prepared apps across the estimator's lifetime; it feeds
	// Observation.AppID so predictor-side once-per-app logic survives
	// scheduler reuse on a fresh cluster (whose app IDs restart at 0).
	seq int
}

// NewMoE returns the paper's scheme backed by a trained model: the static,
// predict-once-at-submission pipeline, bit-for-bit the historical behaviour.
func NewMoE(model *moe.Model, rng *rand.Rand) *Dispatcher {
	d := NewMoEPredictor(moe.NewStatic(model), rng)
	d.PolicyName = "MoE"
	return d
}

// NewAdaptiveMoE returns the feedback-driven variant: the same trained
// model wrapped in moe.Adaptive, which recalibrates expert coefficients and
// reweights the gate from the engine's completion/OOM observations.
func NewAdaptiveMoE(model *moe.Model, cfg moe.AdaptiveConfig, rng *rand.Rand) *Dispatcher {
	return NewMoEPredictor(moe.NewAdaptive(model, cfg), rng)
}

// NewMoEPredictor returns an MoE-style scheme driven by an arbitrary
// prediction pipeline. The dispatcher's policy name is the predictor's.
func NewMoEPredictor(p moe.Predictor, rng *rand.Rand) *Dispatcher {
	return &Dispatcher{
		PolicyName:   p.Name(),
		Est:          &moeEstimator{pred: p, rng: rng},
		SafetyMargin: defaultMargin,
		CheckCPU:     true,
	}
}

// Prepare profiles the app and gates it. The profiling inputs are drawn
// from the shared rng in a fixed order — feature counters, then the two
// calibration points — that every golden depends on. A confident prediction
// is installed as the app's estimate with its observation context; on low
// confidence or calibration failure the estimate stays unset and the
// dispatcher falls back to the conservative default policy for this app, as
// the paper prescribes.
func (e *moeEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	b := app.Job.Bench
	s1, s2 := calibSizes(app.Job.InputGB)
	raw := b.Counters(e.rng)
	p1 := b.ProfilePoint(s1, e.rng)
	p2 := b.ProfilePoint(s2, e.rng)
	plan := cluster.ContributingProfile(featureProfileGB + s1 + s2)
	pred, err := e.pred.Predict(raw, p1, p2)
	if err != nil || !pred.Confident {
		return plan
	}
	e.seq++
	est := funcEstimate(pred.Func)
	est.feedback = &feedback{
		features:   raw,
		pcs:        pred.Selection.PCs,
		family:     pred.Selection.Family,
		calibrated: pred.Func.Family,
		p1:         p1,
		p2:         p2,
		raw:        pred.Uncorrected,
		seq:        e.seq,
	}
	app.Estimate = est
	if app.MaxExecutors > 0 {
		app.PredictedGB = est.Footprint(app.Job.InputGB / float64(app.MaxExecutors))
	}
	return plan
}

// Observe implements observingEstimator: the executor's realised footprint
// is set against the prediction its app was planned with and fed back
// through the prediction pipeline.
func (e *moeEstimator) Observe(ex *cluster.Executor, outcome cluster.ExecOutcome) {
	est, ok := estimateOf(ex.App)
	if !ok || est.feedback == nil || ex.PredictedGB <= 0 || ex.NeedGB <= 0 {
		return
	}
	oc := moe.OutcomeCompleted
	if outcome == cluster.ExecOOMKilled {
		oc = moe.OutcomeOOM
	}
	e.pred.Observe(moe.Observation{
		Features:       est.feedback.features,
		PCs:            est.feedback.pcs,
		Family:         est.feedback.family,
		Calibrated:     est.feedback.calibrated,
		AppID:          est.feedback.seq,
		P1:             est.feedback.p1,
		P2:             est.feedback.p2,
		ItemsGB:        ex.ItemsGB,
		PredictedGB:    ex.PredictedGB,
		RawPredictedGB: est.feedback.rawPredict(ex.ItemsGB),
		ActualGB:       ex.NeedGB,
		Outcome:        oc,
	})
}

// onlineSearchEstimator models the Figure 10 baseline: descent-gradient
// probing of the data allocation at runtime. The search eventually finds an
// accurate allocation (footprint within a few percent) but consumes a large
// profiling volume doing so, and the probing cost scales with the input.
type onlineSearchEstimator struct {
	rng *rand.Rand
}

// NewOnlineSearch returns the online-search scheme.
func NewOnlineSearch(rng *rand.Rand) *Dispatcher {
	return &Dispatcher{
		PolicyName:   "OnlineSearch",
		Est:          &onlineSearchEstimator{rng: rng},
		SafetyMargin: defaultMargin,
		CheckCPU:     true,
	}
}

func (e *onlineSearchEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	// The converged search is accurate but slightly biased per app.
	bias := 1 + e.rng.NormFloat64()*0.03
	truth := app.Job.Bench.Truth
	scaled := truth
	scaled.M *= bias
	app.Estimate = funcEstimate(scaled)
	// Gradient probing reprocesses trial allocations over and over; only
	// the final converged pass contributes to the output.
	volume := math.Min(onlineSearchFrac*app.Job.InputGB, onlineSearchCapGB)
	return cluster.ProfilePlan{VolumeGB: volume, ContributesGB: volume * 0.2}
}

// unifiedEstimator calibrates one fixed curve family for every application
// (the Figure 9 single-model baselines). Wrong-family applications suffer
// large extrapolation errors — the paper's motivation for the mixture.
type unifiedEstimator struct {
	family memfunc.Family
	rng    *rand.Rand
}

// NewUnified returns a single-family baseline scheme.
func NewUnified(family memfunc.Family, rng *rand.Rand) *Dispatcher {
	return &Dispatcher{
		PolicyName:   "Unified-" + family.String(),
		Est:          &unifiedEstimator{family: family, rng: rng},
		SafetyMargin: defaultMargin,
		CheckCPU:     true,
	}
}

func (e *unifiedEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	b := app.Job.Bench
	s1, s2 := calibSizes(app.Job.InputGB)
	fn, err := memfunc.Calibrate(e.family, b.ProfilePoint(s1, e.rng), b.ProfilePoint(s2, e.rng))
	if err != nil {
		// The family cannot pass through the observations (e.g. a
		// saturating exponential on super-linear data): fall back to a
		// straight line through the larger observation.
		p := b.ProfilePoint(s2, e.rng)
		fn = memfunc.Func{Family: memfunc.LinearPower, M: p.Y / p.X, B: 1}
	}
	app.Estimate = funcEstimate(fn)
	return cluster.ContributingProfile(featureProfileGB + s1 + s2)
}
