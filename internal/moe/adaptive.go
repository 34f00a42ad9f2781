package moe

import (
	"math"

	"moespark/internal/classify"
	"moespark/internal/features"
	"moespark/internal/mathx"
	"moespark/internal/memfunc"
)

// AdaptiveConfig tunes the online-adaptation machinery. The zero value
// selects defaults sized for the open-system streams this repository runs.
type AdaptiveConfig struct {
	// Window is the sliding-window length of per-expert relative error the
	// gate reweighting reads (default 32).
	Window int
	// Forget is the recursive-least-squares forgetting factor of the
	// coefficient recalibration: 1 averages all history, smaller values track
	// drift faster (default 0.97).
	Forget float64
	// MinObs is how many observations an expert needs before its correction
	// (and its gate penalty) applies (default 8).
	MinObs int
	// GateGain scales how strongly an expert's window error biases the gate
	// against it: neighbour distances are multiplied by
	// 1 + GateGain * meanRelativeError, capped at MaxGateBias (default 2).
	GateGain float64
	// MaxGateBias caps the gate's distance multiplier. The cap is load
	// bearing: one broken expert's window would otherwise reroute every
	// program near its cluster — including the healthy ones at its centre —
	// onto far-away experts whose wrong-family calibrations are worse than
	// the errors being fled. Capped tightly, the bias can only break
	// genuine near-ties between clusters; wholesale rerouting of a drifted
	// cohort is the teaching mechanism's job (default 1.15).
	MaxGateBias float64
	// TeachErr is the relative-error threshold past which an observation
	// indicts the selected expert and gate self-training considers
	// relabelling the app's feature-space position (default 0.5).
	TeachErr float64
	// TeachTol is how accurately (relative error at the observed
	// allocation) an alternative expert's two-point calibration must explain
	// the realised footprint before the gate is taught its label
	// (default 0.25).
	TeachTol float64
	// MaxTaught bounds how many corrected samples self-training may plant in
	// the gate per run, keeping the KNN's cost bounded on endless streams
	// (default 512).
	MaxTaught int
	// MinScale / MaxScale bound the learned multiplicative correction; fits
	// outside [MinScale, MaxScale] are distrusted and skipped. The band is
	// asymmetric by design (defaults 0.7 and 8): the platform's penalty
	// structure is asymmetric. Raising predictions merely wastes
	// reservation headroom, so upward corrections may swing far; lowering
	// them under-reserves every healthy program sharing the expert
	// (heap-pressure thrash, OOM risk) if the observation mixture is
	// polluted, so downward corrections are confined to mild trims.
	MinScale float64
	MaxScale float64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	// Every check is written as !(in range) so that NaN, which fails every
	// comparison, gets the default like any other out-of-range value.
	if !(c.Window > 0) {
		c.Window = 32
	}
	if !(c.Forget > 0 && c.Forget <= 1) {
		c.Forget = 0.97
	}
	if !(c.MinObs > 0) {
		c.MinObs = 8
	}
	if c.GateGain < 0 {
		c.GateGain = 0
	} else if !(c.GateGain > 0) {
		c.GateGain = 2
	}
	if !(c.MaxGateBias > 1) {
		c.MaxGateBias = 1.15
	}
	if !(c.TeachErr > 0) {
		c.TeachErr = 0.5
	}
	if !(c.TeachTol > 0) {
		c.TeachTol = 0.25
	}
	if !(c.MaxTaught > 0) {
		c.MaxTaught = 512
	}
	if !(c.MinScale > 0 && c.MinScale <= 1) {
		c.MinScale = 0.7
	}
	if !(c.MaxScale > 1) {
		c.MaxScale = 8
	}
	return c
}

// Adaptive is the feedback-driven mixture-of-experts predictor: the trained
// model's gate and experts, plus two online mechanisms fed by Observe.
//
//  1. Incremental expert recalibration. Per expert, a running least-squares
//     fit (with forgetting) regresses observed true footprints on the raw
//     two-point-calibrated predictions: actual ≈ a + c·predicted. The affine
//     map composes exactly with the linear and Napierian-log families
//     (m' = a + c·m, b' = c·b) and plateau-exactly with the saturating
//     exponential (m' = a + c·m), so a corrected prediction is still an
//     ordinary memory function and everything downstream — inversion,
//     safety margins, reservations — is unchanged. Under workload drift
//     (input sizes growing past the capped calibration runs, regime
//     switches) the two-point calibration develops systematic extrapolation
//     bias; the recalibration learns it out.
//
//  2. Gate reweighting. A sliding window of each expert's recent relative
//     error (of the operative, post-correction predictions) biases the KNN
//     gate: a mispredicting expert loses genuine near-ties. The bias is
//     tightly capped — see AdaptiveConfig.MaxGateBias — and a flip away from
//     the unbiased choice is accepted only when the rerouted expert's
//     calibration predicts at least as much memory at the extrapolation
//     scale: rerouting may make the scheduler more conservative, never less
//     (an unvalidated reroute onto a lower-predicting expert under-reserves
//     its victims into heap-pressure thrash).
//
//  3. Gate self-training. When an observation indicts the selected expert
//     (relative error past TeachErr) and another family's calibration
//     through the same two profiling points explains the realised footprint
//     within TeachTol, the app's position in the reduced feature space is
//     added to the gate under the better label (Model.TeachGate, the paper's
//     KNN extensibility). A drifted cohort clusters in feature space, so a
//     few corrected samples reroute the whole cohort — including across a
//     full cluster crossing, which no distance bias can fix safely.
//
// On a stationary stream the corrections converge to the identity, the
// window errors stay small and nothing gets taught, so Adaptive tracks the
// static model closely; it earns its keep when the input distribution shifts
// mid-stream.
type Adaptive struct {
	model   *Model
	cfg     AdaptiveConfig
	fits    map[memfunc.Family]*mathx.OnlineLS
	errs    *classify.LabelErrorWindow
	taught  map[int]bool // app IDs that already had their teaching decision
	nTaught int
	obs     int
}

var _ Predictor = (*Adaptive)(nil)

// NewAdaptive wraps a trained model with online recalibration state. The
// model is cloned (gate and labels), so self-training never mutates the
// caller's trained model. To warm-start a later run from the learned state,
// reuse the whole scheduler the predictor is wrapped in: the scheduler's
// estimator issues the Observation.AppID sequence, so a fresh scheduler
// around an already-warm predictor would restart that sequence and silently
// suppress the predictor's once-per-app logic for colliding IDs. Runs that
// must not share state get fresh instances of both.
func NewAdaptive(m *Model, cfg AdaptiveConfig) *Adaptive {
	cfg = cfg.withDefaults()
	return &Adaptive{
		model:  m.Clone(),
		cfg:    cfg,
		fits:   map[memfunc.Family]*mathx.OnlineLS{},
		errs:   classify.NewLabelErrorWindow(cfg.Window),
		taught: map[int]bool{},
	}
}

// Name implements Predictor.
func (a *Adaptive) Name() string { return "MoE-adaptive" }

// Observations counts how many outcomes have been folded in.
func (a *Adaptive) Observations() int { return a.obs }

// Taught counts the corrected samples self-training planted in the gate.
func (a *Adaptive) Taught() int { return a.nTaught }

// gateBias returns the distance multiplier for one expert: 1 until the
// expert has a full-enough window, then grows with its recent mean relative
// error.
func (a *Adaptive) gateBias(f memfunc.Family) float64 {
	if a.errs.Count(int(f)) < a.cfg.MinObs {
		return 1
	}
	b := 1 + a.cfg.GateGain*a.errs.Mean(int(f))
	if b > a.cfg.MaxGateBias {
		return a.cfg.MaxGateBias
	}
	return b
}

// extrapolationRef is where rival calibrations are compared when judging a
// gate flip: far enough past the larger profiling point that the families'
// shapes have diverged (the drift regime's stale predictions hurt at
// extrapolated sizes, not at the calibrated ones).
const extrapolationRef = 25.0

// Predict implements Predictor: reweighted gate selection (conservative
// flips only), two-point calibration with family fallback (exactly the
// static path's), then the expert's learned coefficient correction when one
// is trustworthy.
func (a *Adaptive) Predict(raw features.Vector, p1, p2 memfunc.Point) (Prediction, error) {
	sel, err := a.model.SelectFamily(raw)
	if err != nil {
		return Prediction{}, err
	}
	if a.biasActive() {
		if biased, err := a.model.SelectFamilyBiased(raw, a.gateBias); err == nil &&
			biased.Family != sel.Family && flipConservative(sel.Family, biased.Family, p1, p2) {
			sel = biased
		}
	}
	fn, err := memfunc.CalibrateWithFallback(sel.Family, p1, p2)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{
		Selection:   sel,
		Func:        fn,
		Uncorrected: fn,
		FellBack:    fn.Family != sel.Family,
	}
	// The correction is keyed by the calibrated curve's family (not the
	// selected expert): it was learned from that shape's predictions, and
	// on a fallback the shape differs from the gate's choice.
	if off, scale, ok := a.correction(fn.Family); ok {
		if corrected, ok := recalibrate(fn, off, scale, a.cfg.MinScale, p2); ok {
			pred.Func = corrected
			pred.Recalibrated = true
		}
	}
	return pred, nil
}

// biasActive reports whether any expert currently carries a gate bias above
// one; until then the biased selection is guaranteed to equal the unbiased
// one and the second gate pass is skipped.
func (a *Adaptive) biasActive() bool {
	for _, f := range memfunc.Families {
		if a.gateBias(f) > 1 {
			return true
		}
	}
	return false
}

// flipConservative reports whether rerouting from the unbiased expert to
// the bias-preferred one can only over-reserve: both families must
// calibrate through the profiling points, and the new expert must predict
// at least as much memory at the extrapolation scale.
func flipConservative(from, to memfunc.Family, p1, p2 memfunc.Point) bool {
	ref := extrapolationRef * p2.X
	fromFn, err := memfunc.Calibrate(from, p1, p2)
	if err != nil {
		return false
	}
	toFn, err := memfunc.Calibrate(to, p1, p2)
	if err != nil {
		return false
	}
	yFrom, err := fromFn.Eval(ref)
	if err != nil {
		return false
	}
	yTo, err := toFn.Eval(ref)
	if err != nil {
		return false
	}
	return yTo >= yFrom
}

// correction returns the expert's current affine recalibration
// (actual ≈ off + scale·predicted) when it rests on enough observations and
// is sane; identity-equivalent failures (too little data, singular fit,
// non-positive or implausible scale) report ok=false.
func (a *Adaptive) correction(f memfunc.Family) (off, scale float64, ok bool) {
	ls := a.fits[f]
	if ls == nil || ls.Count() < float64(a.cfg.MinObs) {
		return 0, 0, false
	}
	coef, err := ls.Coef()
	if err != nil {
		return 0, 0, false
	}
	off, scale = coef[0], coef[1]
	if math.IsNaN(off) || math.IsInf(off, 0) ||
		scale < a.cfg.MinScale || scale > a.cfg.MaxScale {
		return 0, 0, false
	}
	return off, scale, true
}

// recalibrate folds the affine correction into the calibrated function's own
// coefficients. Linear and Napierian-log compose exactly; the saturating
// exponential maps its plateau exactly (large allocations are where stale
// predictions cost the most) and keeps its rate. The corrected curve must
// still predict a positive footprint at the larger calibration point, and —
// because a negative learned offset could otherwise cut far below what the
// scale band allows — the corrected prediction at both the calibration and
// the extrapolation scale must stay within the minScale trim of the raw
// curve, or the correction is rejected as noise.
func recalibrate(fn memfunc.Func, off, scale, minScale float64, p2 memfunc.Point) (memfunc.Func, bool) {
	out := fn
	switch fn.Family {
	case memfunc.LinearPower, memfunc.NapierianLog:
		out.M = off + scale*fn.M
		out.B = scale * fn.B
	case memfunc.Exponential:
		out.M = off + scale*fn.M
	default:
		return fn, false
	}
	for _, x := range []float64{p2.X, extrapolationRef * p2.X} {
		yRaw, err := fn.Eval(x)
		if err != nil || yRaw <= 0 {
			return fn, false
		}
		y, err := out.Eval(x)
		if err != nil || y <= 0 || math.IsNaN(y) || math.IsInf(y, 0) || y < minScale*yRaw {
			return fn, false
		}
	}
	return out, true
}

// Observe implements Predictor: the selected expert's sliding error window
// is updated with the operative prediction's relative error, the calibrated
// family's recalibration fit absorbs the (raw prediction, actual) pair, and
// — once per app — a large error triggers the gate-teaching check.
func (a *Adaptive) Observe(obs Observation) {
	if !obs.Family.Valid() || !obs.Calibrated.Valid() ||
		obs.ActualGB <= 0 || obs.PredictedGB <= 0 || obs.RawPredictedGB <= 0 {
		return
	}
	a.obs++
	relErr := math.Abs(obs.PredictedGB-obs.ActualGB) / obs.ActualGB
	a.errs.Add(int(obs.Family), relErr)
	ls := a.fits[obs.Calibrated]
	if ls == nil {
		ls = mathx.NewOnlineLS(2, a.cfg.Forget)
		a.fits[obs.Calibrated] = ls
	}
	ls.Add([]float64{1, obs.RawPredictedGB}, obs.ActualGB)
	if !a.taught[obs.AppID] {
		a.taught[obs.AppID] = true
		a.maybeTeach(obs, relErr)
	}
}

// maybeTeach relabels the app's feature-space position in the gate when the
// evidence is conclusive: the selected expert mispredicted the realised
// footprint badly, while some other family calibrated through the very same
// profiling points explains it accurately. Both conditions guard against
// noise-driven relabelling — a merely-mediocre prediction, or an
// alternative that is no better, teaches nothing.
//
// Teaching fires only on under-prediction. The guard is the same asymmetry
// as the correction's scale band, applied to routing: an under-prediction
// indictment teaches a faster-growing family, and if healthy neighbours in
// feature space get caught by the taught sample they are merely
// over-reserved. An over-prediction indictment would teach a
// slower-growing (typically saturating) family, and a healthy neighbour
// routed onto a saturating fit is under-reserved into heap-pressure thrash
// — observed to cost far more than the over-prediction being cured.
func (a *Adaptive) maybeTeach(obs Observation, relErr float64) {
	if obs.ActualGB <= obs.PredictedGB {
		return
	}
	if relErr <= a.cfg.TeachErr || a.nTaught >= a.cfg.MaxTaught || len(obs.PCs) == 0 {
		return
	}
	// The incumbent is the curve that actually mispredicted; rivals are the
	// other families calibrated through the same profiling points. Teaching
	// only matters when the winner differs from the gate's routing decision.
	best := obs.Calibrated
	bestErr := relErr
	for _, fam := range memfunc.Families {
		if fam == obs.Calibrated {
			continue
		}
		fn, err := memfunc.Calibrate(fam, obs.P1, obs.P2)
		if err != nil {
			continue
		}
		y, err := fn.Eval(obs.ItemsGB)
		if err != nil || y <= 0 {
			continue
		}
		if e := math.Abs(y-obs.ActualGB) / obs.ActualGB; e < bestErr {
			best, bestErr = fam, e
		}
	}
	if best == obs.Family || best == obs.Calibrated || bestErr > a.cfg.TeachTol {
		return
	}
	if a.model.TeachGate(obs.PCs, best) == nil {
		a.nTaught++
	}
}
