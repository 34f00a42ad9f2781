package moe

import (
	"math"
	"math/rand"
	"testing"

	"moespark/internal/features"
	"moespark/internal/memfunc"
	"moespark/internal/workload"
)

// refAdaptivePredict is Adaptive.Predict as two full gate passes, the
// reference the single-projection path is checked against: an unbiased
// SelectFamily, then, while any gate bias is active, a second projection
// whose KNN query calls gateBias for every training sample, a conservative
// flip onto the biased selection, calibration and the learned correction.
// It also reports whether the biased gate proposed a different expert and
// whether the flip was taken.
func refAdaptivePredict(a *Adaptive, raw features.Vector, p1, p2 memfunc.Point) (pred Prediction, proposed, flipped bool, err error) {
	sel, err := a.model.SelectFamily(raw)
	if err != nil {
		return Prediction{}, false, false, err
	}
	active := false
	for _, f := range memfunc.Families {
		if a.gateBias(f) > 1 {
			active = true
		}
	}
	if active {
		biased, err := a.model.SelectFamily(raw)
		if err == nil {
			var label int
			label, _, err = a.model.selector.PredictBiased(biased.PCs, func(l int) float64 {
				return a.gateBias(memfunc.Family(l))
			})
			biased.Family = memfunc.Family(label)
			if err == nil && biased.Family.Valid() && biased.Family != sel.Family {
				proposed = true
				if flipConservative(sel.Family, biased.Family, p1, p2) {
					sel, flipped = biased, true
				}
			}
		}
	}
	fn, err := memfunc.CalibrateWithFallback(sel.Family, p1, p2)
	if err != nil {
		return Prediction{}, proposed, flipped, err
	}
	pred = Prediction{
		Selection:   sel,
		Func:        fn,
		Uncorrected: fn,
		FellBack:    fn.Family != sel.Family,
	}
	if off, scale, ok := a.correction(fn.Family); ok {
		if corrected, ok := recalibrate(fn, off, scale, a.cfg.MinScale, p2); ok {
			pred.Func = corrected
			pred.Recalibrated = true
		}
	}
	return pred, proposed, flipped, nil
}

// warmAdaptive returns an adaptive predictor on the default model whose
// error windows bias the gate against two experts: the exponential one by
// the full MaxGateBias and the linear one by 1.1. The same observations
// give both a learned correction. No observation carries PCs, so nothing is
// taught and the gate's training set stays the model's.
func warmAdaptive(tb testing.TB) *Adaptive {
	tb.Helper()
	m, err := TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	a := NewAdaptive(m, AdaptiveConfig{})
	id := 0
	for _, w := range []struct {
		fam    memfunc.Family
		relErr float64
	}{{memfunc.Exponential, 0.5}, {memfunc.LinearPower, 0.05}} {
		for i := 0; i < 2*a.cfg.MinObs; i++ {
			raw := 1 + float64(i)
			a.Observe(Observation{
				Family:         w.fam,
				Calibrated:     w.fam,
				AppID:          id,
				ItemsGB:        raw,
				PredictedGB:    raw,
				RawPredictedGB: raw,
				ActualGB:       (1 + w.relErr) * raw,
				Outcome:        OutcomeCompleted,
			})
			id++
		}
	}
	var bias biasTable
	if !a.gateBiases(&bias) {
		tb.Fatal("warm-up left every gate bias at 1")
	}
	return a
}

// admission is one Predict request.
type admission struct {
	raw    features.Vector
	p1, p2 memfunc.Point
}

// drawAdmissions returns n requests: noisy counters of the training
// programs with their own profiling points, alternating with random
// counters inside the scaler's range and random profiling points whose
// second footprint may fall below, between or above what each expert can
// calibrate through.
func drawAdmissions(a *Adaptive, n int, rng *rand.Rand) []admission {
	train := workload.TrainingSet()
	sc := a.model.Pipeline().Scaler
	out := make([]admission, n)
	for i := range out {
		if i%2 == 0 {
			b := train[(i/2)%len(train)]
			out[i] = admission{raw: b.Counters(rng), p1: b.ProfilePoint(0.5, rng), p2: b.ProfilePoint(2, rng)}
			continue
		}
		var raw features.Vector
		for j := range raw {
			raw[j] = sc.Min[j] + (sc.Max[j]-sc.Min[j])*rng.Float64()
		}
		x1 := 0.1 + 2*rng.Float64()
		x2 := x1 * (1.5 + 3*rng.Float64())
		y1 := 0.5 + 5*rng.Float64()
		y2 := y1 * (0.5 + (x2/x1)*rng.Float64())
		out[i] = admission{raw: raw, p1: memfunc.Point{X: x1, Y: y1}, p2: memfunc.Point{X: x2, Y: y2}}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFunc(a, b memfunc.Func) bool {
	return a.Family == b.Family && sameBits(a.M, b.M) && sameBits(a.B, b.B)
}

func samePrediction(a, b Prediction) bool {
	if a.Family != b.Family || !sameBits(a.Distance, b.Distance) || a.Confident != b.Confident ||
		!sameFunc(a.Func, b.Func) || !sameFunc(a.Uncorrected, b.Uncorrected) ||
		a.FellBack != b.FellBack || a.Recalibrated != b.Recalibrated || len(a.PCs) != len(b.PCs) {
		return false
	}
	for i := range a.PCs {
		if !sameBits(a.PCs[i], b.PCs[i]) {
			return false
		}
	}
	return true
}

// Adaptive.Predict projects once and serves both gate queries from that
// projection and a per-call bias table. Every field of every prediction
// must match the two-pass reference bit for bit, on a gate biased against
// two experts, and the requests must include both a flip the gate takes
// and one flipConservative refuses.
func TestAdaptivePredictMatchesTwoPassReference(t *testing.T) {
	a := warmAdaptive(t)
	reqs := drawAdmissions(a, 20000, rand.New(rand.NewSource(5)))
	var flips, refused, recalibrated int
	for i, r := range reqs {
		want, proposed, flipped, wantErr := refAdaptivePredict(a, r.raw, r.p1, r.p2)
		got, err := a.Predict(r.raw, r.p1, r.p2)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("request %d: err %v, reference %v", i, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !samePrediction(got, want) {
			t.Fatalf("request %d: got %+v, reference %+v", i, got, want)
		}
		switch {
		case flipped:
			flips++
		case proposed:
			refused++
		}
		if got.Recalibrated {
			recalibrated++
		}
	}
	t.Logf("%d requests: %d flips taken, %d refused, %d recalibrated", len(reqs), flips, refused, recalibrated)
	if flips == 0 || refused == 0 {
		t.Fatalf("want both a taken and a refused flip, got %d and %d", flips, refused)
	}
	if recalibrated == 0 {
		t.Fatal("no prediction applied a learned correction")
	}
}

// BenchmarkAdaptivePredict times one adaptive admission — projection, both
// gate queries, calibration and correction — on a gate with active biases,
// cycling through 4096 pre-drawn requests.
func BenchmarkAdaptivePredict(b *testing.B) {
	a := warmAdaptive(b)
	reqs := drawAdmissions(a, 4096, rand.New(rand.NewSource(5)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		if _, err := a.Predict(r.raw, r.p1, r.p2); err != nil {
			b.Fatal(err)
		}
	}
}
