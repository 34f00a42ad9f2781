package moe

import (
	"math"
	"math/rand"
	"testing"

	"moespark/internal/memfunc"
	"moespark/internal/workload"
)

func adaptTestModel(t *testing.T) *Model {
	t.Helper()
	m, err := TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Before any observation arrives, the adaptive predictor must behave exactly
// like the static pipeline: same selection, same calibrated coefficients.
func TestAdaptiveMatchesStaticBeforeObservations(t *testing.T) {
	model := adaptTestModel(t)
	ad := NewAdaptive(model, AdaptiveConfig{})
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"HB.Sort", "HB.PageRank", "SB.MatrixFact"} {
		b, err := workload.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		feats := b.Counters(rng)
		p1 := b.ProfilePoint(0.5, rng)
		p2 := b.ProfilePoint(2, rng)
		want, errS := model.Predict(feats, p1, p2)
		got, errA := ad.Predict(feats, p1, p2)
		if (errS == nil) != (errA == nil) {
			t.Fatalf("%s: static err %v, adaptive err %v", name, errS, errA)
		}
		if errS != nil {
			continue
		}
		if got.Func != want.Func || got.Family != want.Family || got.Recalibrated {
			t.Errorf("%s: adaptive %+v diverged from static %+v before any observation", name, got.Func, want.Func)
		}
	}
}

// Systematic under-prediction observations must recalibrate the expert's
// coefficients: the incremental fit learns actual ≈ off + scale·predicted
// and folds it into subsequently predicted functions.
func TestAdaptiveRecalibratesFromObservations(t *testing.T) {
	model := adaptTestModel(t)
	ad := NewAdaptive(model, AdaptiveConfig{MinObs: 6})
	b, err := workload.Find("SB.MatrixFact") // linear-family benchmark
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	feats := b.Counters(rng)
	p1 := b.ProfilePoint(0.5, rng)
	p2 := b.ProfilePoint(2, rng)
	base, err := ad.Predict(feats, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	fam := base.Family
	// The model's predictions turn out to systematically miss by
	// actual = 0.5 + 2·predicted.
	for i := 0; i < 10; i++ {
		raw := 2.0 + float64(i)
		ad.Observe(Observation{
			Family:         fam,
			Calibrated:     base.Func.Family,
			AppID:          i,
			ItemsGB:        raw,
			PredictedGB:    raw,
			RawPredictedGB: raw,
			ActualGB:       0.5 + 2*raw,
			Outcome:        OutcomeCompleted,
		})
	}
	if ad.Observations() != 10 {
		t.Fatalf("recorded %d observations, want 10", ad.Observations())
	}
	corrected, err := ad.Predict(feats, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !corrected.Recalibrated {
		t.Fatal("prediction after systematic misses must be recalibrated")
	}
	if corrected.Uncorrected != base.Func {
		t.Errorf("uncorrected calibration changed: %+v vs %+v", corrected.Uncorrected, base.Func)
	}
	const x = 10.0
	rawY, err := base.Func.Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	gotY, err := corrected.Func.Eval(x)
	if err != nil {
		t.Fatal(err)
	}
	wantY := 0.5 + 2*rawY
	if math.Abs(gotY-wantY)/wantY > 0.05 {
		t.Errorf("corrected prediction at %v: got %v, want ~%v (raw %v)", x, gotY, wantY, rawY)
	}
}

// A conclusive under-prediction indictment must teach the gate: a drifted
// linear-family program whose counters land on the exponential cluster is
// misrouted onto the saturating expert (which under-predicts its growing
// footprint by whole multiples), and after one observed outcome proves the
// linear expert explains the realised footprint, the cohort's feature-space
// region routes to the linear expert.
func TestAdaptiveGateTeachingReroutesDriftedCohort(t *testing.T) {
	model := adaptTestModel(t)
	ad := NewAdaptive(model, AdaptiveConfig{})
	orig, err := workload.Find("SB.MatrixFact") // linear-family benchmark
	if err != nil {
		t.Fatal(err)
	}
	drifted := *orig
	drifted.CounterSkew = 0.35
	rng := rand.New(rand.NewSource(11))
	feats := drifted.Counters(rng)
	p1 := drifted.ProfilePoint(0.5, rng)
	p2 := drifted.ProfilePoint(2, rng)
	pred, err := ad.Predict(feats, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Family != memfunc.Exponential {
		t.Skipf("drifted counters selected %v, not the exponential expert this test needs", pred.Family)
	}
	const items = 50.0
	predicted, err := pred.Func.Eval(items)
	if err != nil {
		t.Fatal(err)
	}
	actual := drifted.Footprint(items)
	if actual <= predicted {
		t.Fatalf("scenario broken: saturating fit %v does not under-predict truth %v", predicted, actual)
	}
	ad.Observe(Observation{
		Features:       feats,
		PCs:            pred.PCs,
		Family:         pred.Family,
		Calibrated:     pred.Func.Family,
		AppID:          1,
		P1:             p1,
		P2:             p2,
		ItemsGB:        items,
		PredictedGB:    predicted,
		RawPredictedGB: predicted,
		ActualGB:       actual,
		Outcome:        OutcomeCompleted,
	})
	if ad.Taught() != 1 {
		t.Fatalf("taught %d gate samples, want 1", ad.Taught())
	}
	after, err := ad.Predict(drifted.Counters(rng), drifted.ProfilePoint(0.5, rng), drifted.ProfilePoint(2, rng))
	if err != nil {
		t.Fatal(err)
	}
	if after.Family != memfunc.LinearPower {
		t.Errorf("post-teaching selection %v, want the linear expert", after.Family)
	}
	// The shared trained model must be untouched: a fresh static selection
	// on the same drifted counters still misroutes.
	sel, err := model.SelectFamily(feats)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Family != memfunc.Exponential {
		t.Errorf("teaching leaked into the shared model: static selection now %v", sel.Family)
	}
}

// An over-prediction indictment must not teach: rerouting the neighbourhood
// onto a lower-predicting expert would under-reserve healthy programs.
func TestAdaptiveTeachingRefusesOverPrediction(t *testing.T) {
	model := adaptTestModel(t)
	ad := NewAdaptive(model, AdaptiveConfig{})
	b, err := workload.Find("HB.Sort")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	feats := b.Counters(rng)
	p1 := b.ProfilePoint(0.5, rng)
	p2 := b.ProfilePoint(2, rng)
	pred, err := ad.Predict(feats, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	ad.Observe(Observation{
		Features:       feats,
		PCs:            pred.PCs,
		Family:         pred.Family,
		Calibrated:     pred.Func.Family,
		AppID:          1,
		P1:             p1,
		P2:             p2,
		ItemsGB:        50,
		PredictedGB:    40, // predicted far above...
		RawPredictedGB: 40,
		ActualGB:       4, // ...the realised footprint
		Outcome:        OutcomeCompleted,
	})
	if ad.Taught() != 0 {
		t.Errorf("over-prediction taught %d samples, want 0", ad.Taught())
	}
}

// A NaN setting fails every comparison, so range checks written as
// "x <= 0 || x > 1" let it through; it must get the default like any other
// out-of-range value. A NaN Forget used to build without error and then
// panic inside the recalibration fit at the first Observe.
func TestAdaptiveNaNConfigGetsDefaults(t *testing.T) {
	nan := math.NaN()
	ad := NewAdaptive(adaptTestModel(t), AdaptiveConfig{
		Forget: nan, GateGain: nan, MaxGateBias: nan, TeachErr: nan,
		TeachTol: nan, MinScale: nan, MaxScale: nan,
	})
	if want := (AdaptiveConfig{}).withDefaults(); ad.cfg != want {
		t.Errorf("NaN settings became %+v, want the defaults %+v", ad.cfg, want)
	}
	ad.Observe(Observation{
		Family:         memfunc.LinearPower,
		Calibrated:     memfunc.LinearPower,
		ItemsGB:        4,
		PredictedGB:    4,
		RawPredictedGB: 4,
		ActualGB:       5,
		Outcome:        OutcomeCompleted,
	})
	if ad.Observations() != 1 {
		t.Fatalf("recorded %d observations, want 1", ad.Observations())
	}
}
