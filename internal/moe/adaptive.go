package moe

import (
	"math"

	"moespark/internal/classify"
	"moespark/internal/features"
	"moespark/internal/mathx"
	"moespark/internal/memfunc"
)

// The online-adaptation settings, sized for the open-system streams this
// repository runs.
const (
	// errWindow is the sliding-window length of per-expert relative error
	// the gate reweighting reads.
	errWindow = 32
	// forget is the recursive-least-squares forgetting factor of the
	// coefficient recalibration: 1 averages all history, smaller values
	// track drift faster.
	forget = 0.97
	// minObs is how many observations an expert needs before its
	// correction (and its gate penalty) applies.
	minObs = 8
	// gateGain scales how strongly an expert's window error biases the gate
	// against it: neighbour distances are multiplied by
	// 1 + gateGain * meanRelativeError, capped at maxGateBias.
	gateGain = 2.0
	// maxGateBias caps the gate's distance multiplier. The cap is load
	// bearing: one broken expert's window would otherwise reroute every
	// program near its cluster — including the healthy ones at its centre —
	// onto far-away experts whose wrong-family calibrations are worse than
	// the errors being fled. Capped tightly, the bias can only break
	// genuine near-ties between clusters; wholesale rerouting of a drifted
	// cohort is the teaching mechanism's job.
	maxGateBias = 1.15
	// teachErr is the relative-error threshold past which an observation
	// indicts the selected expert and gate self-training considers
	// relabelling the app's feature-space position.
	teachErr = 0.5
	// teachTol is how accurately (relative error at the observed
	// allocation) an alternative expert's two-point calibration must
	// explain the realised footprint before the gate is taught its label.
	teachTol = 0.25
	// maxTaught bounds how many corrected samples self-training may plant
	// in the gate per run, keeping the KNN's cost bounded on endless
	// streams.
	maxTaught = 512
	// minScale and maxScale bound the learned multiplicative correction;
	// fits outside [minScale, maxScale] are distrusted and skipped. The
	// band is asymmetric by design: the platform's penalty structure is
	// asymmetric. Raising predictions merely wastes reservation headroom,
	// so upward corrections may swing far; lowering them under-reserves
	// every healthy program sharing the expert (heap-pressure thrash, OOM
	// risk) if the observation mixture is polluted, so downward
	// corrections are confined to mild trims.
	minScale = 0.7
	maxScale = 8.0
)

// AdaptiveConfig has no settings: the adaptation settings are the package
// constants above. NewAdaptive still accepts and ignores one, so a call that
// passes one keeps compiling.
type AdaptiveConfig struct{}

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
//     tightly capped — see maxGateBias — and a flip away from
//     the unbiased choice is accepted only when the rerouted expert's
//     calibration predicts at least as much memory at the extrapolation
//     scale: rerouting may make the scheduler more conservative, never less
//     (an unvalidated reroute onto a lower-predicting expert under-reserves
//     its victims into heap-pressure thrash).
//
//  3. Gate self-training. When an observation indicts the selected expert
//     (relative error past teachErr) and another family's calibration
//     through the same two profiling points explains the realised footprint
//     within teachTol, the app's position in the reduced feature space is
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
	fits    map[memfunc.Family]*mathx.OnlineLS
	errs    *classify.LabelErrorWindow
	nTaught int
	obs     int
}

var _ Learner = (*Adaptive)(nil)

// NewAdaptive wraps a trained model with online recalibration state. The
// model is cloned (gate and labels), so self-training never mutates the
// caller's trained model. Runs that must not share learned state get fresh
// instances.
func NewAdaptive(m *Model, _ ...AdaptiveConfig) *Adaptive {
	return &Adaptive{
		model: m.Clone(),
		fits:  map[memfunc.Family]*mathx.OnlineLS{},
		errs:  classify.NewLabelErrorWindow(errWindow),
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
	if a.errs.Count(int(f)) < minObs {
		return 1
	}
	b := 1 + gateGain*a.errs.Mean(int(f))
	if b > maxGateBias {
		return maxGateBias
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
// is trustworthy. The features are projected once; the unbiased and the
// biased gate query both read that projection.
func (a *Adaptive) Predict(raw features.Vector, p1, p2 memfunc.Point) (Prediction, error) {
	pcs, res, err := a.model.project(raw)
	if err != nil {
		return Prediction{}, err
	}
	fam, err := a.model.gate(pcs, nil)
	if err != nil {
		return Prediction{}, err
	}
	sel := a.model.selection(fam, pcs, res)
	// A flip replaces only the family: the confidence distance and the PCs
	// come from the projection, which the bias does not touch.
	var bias biasTable
	if a.gateBiases(&bias) {
		if biased, err := a.model.gate(pcs, bias.of); err == nil &&
			biased != fam && flipConservative(fam, biased, p1, p2) {
			sel.Family = biased
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
		P1:          p1,
		P2:          p2,
	}
	// The correction is keyed by the calibrated curve's family (not the
	// selected expert): it was learned from that shape's predictions, and
	// on a fallback the shape differs from the gate's choice.
	if off, scale, ok := a.correction(fn.Family); ok {
		if corrected, ok := recalibrate(fn, off, scale, p2); ok {
			pred.Func = corrected
			pred.Recalibrated = true
		}
	}
	return pred, nil
}

// biasTable holds one Predict call's gate bias per expert, indexed by the
// family's value, so the biased gate query reads an array instead of two
// error-window lookups per training sample.
type biasTable [memfunc.NapierianLog + 1]float64

// of returns the bias of a gate label. A label that names no family has no
// error window, so it reads 1, exactly as gateBias reports it.
func (t *biasTable) of(label int) float64 {
	if label > 0 && label < len(t) {
		return t[label]
	}
	return 1
}

// gateBiases fills the table and reports whether any expert carries a bias
// above one; until one does, the biased gate query is guaranteed to equal
// the unbiased one and is skipped.
func (a *Adaptive) gateBiases(t *biasTable) (active bool) {
	for _, f := range memfunc.Families {
		t[f] = a.gateBias(f)
		if t[f] > 1 {
			active = true
		}
	}
	return active
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
	if ls == nil || ls.Count() < minObs {
		return 0, 0, false
	}
	coef, err := ls.Coef()
	if err != nil {
		return 0, 0, false
	}
	off, scale = coef[0], coef[1]
	if math.IsNaN(off) || math.IsInf(off, 0) ||
		scale < minScale || scale > maxScale {
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
func recalibrate(fn memfunc.Func, off, scale float64, p2 memfunc.Point) (memfunc.Func, bool) {
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

// Observe implements Learner: the selected expert's sliding error window
// is updated with the operative prediction's relative error, the calibrated
// family's recalibration fit absorbs the (raw prediction, actual) pair, and
// — the first time the app's prediction is observed — a large error
// triggers the gate-teaching check.
func (a *Adaptive) Observe(obs Observation) {
	p := obs.Prediction
	if p == nil {
		return
	}
	predicted, raw := footprint(p.Func, obs.ItemsGB), footprint(p.Uncorrected, obs.ItemsGB)
	if !p.Family.Valid() || !p.Func.Family.Valid() ||
		obs.ActualGB <= 0 || predicted <= 0 || raw <= 0 {
		return
	}
	a.obs++
	relErr := math.Abs(predicted-obs.ActualGB) / obs.ActualGB
	a.errs.Add(int(p.Family), relErr)
	ls := a.fits[p.Func.Family]
	if ls == nil {
		ls = mathx.NewOnlineLS(2, forget)
		a.fits[p.Func.Family] = ls
	}
	// The fit's regressor is the uncorrected curve's footprint: regressing
	// on corrected values would chase a moving fixed point.
	ls.Add([]float64{1, raw}, obs.ActualGB)
	if !p.judged {
		p.judged = true
		a.maybeTeach(obs, predicted, relErr)
	}
}

// footprint evaluates a curve at an allocation, 0 out of domain (the value
// the scheduler planned with there).
func footprint(fn memfunc.Func, x float64) float64 {
	y, err := fn.Eval(x)
	if err != nil {
		return 0
	}
	return y
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
func (a *Adaptive) maybeTeach(obs Observation, predicted, relErr float64) {
	p := obs.Prediction
	if obs.ActualGB <= predicted {
		return
	}
	if relErr <= teachErr || a.nTaught >= maxTaught || len(p.PCs) == 0 {
		return
	}
	// The incumbent is the curve that actually mispredicted; rivals are the
	// other families calibrated through the same profiling points. Teaching
	// only matters when the winner differs from the gate's routing decision.
	best := p.Func.Family
	bestErr := relErr
	for _, fam := range memfunc.Families {
		if fam == p.Func.Family {
			continue
		}
		fn, err := memfunc.Calibrate(fam, p.P1, p.P2)
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
	if best == p.Family || best == p.Func.Family || bestErr > teachTol {
		return
	}
	if a.model.TeachGate(p.PCs, best) == nil {
		a.nTaught++
	}
}
