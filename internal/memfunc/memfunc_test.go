package memfunc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// MustEval is Eval for known-good inputs; it panics on domain errors and is
// intended for sweeps over controlled grids.
func (f Func) MustEval(x float64) float64 {
	y, err := f.Eval(x)
	if err != nil {
		panic(fmt.Sprintf("memfunc: MustEval(%v) on %v: %v", x, f, err))
	}
	return y
}

// The paper's Figure 3 instantiations: Sort is exponential with m=5.768,
// b=4.479; PageRank is Napierian-log with m=16.333, b=1.79.
var (
	paperSort     = Func{Family: Exponential, M: 5.768, B: 4.479}
	paperPageRank = Func{Family: NapierianLog, M: 16.333, B: 1.79}
)

func TestFamilyString(t *testing.T) {
	if LinearPower.String() != "LinearRegression" {
		t.Error(LinearPower.String())
	}
	if Exponential.String() != "ExponentialRegression" {
		t.Error(Exponential.String())
	}
	if NapierianLog.String() != "NapierianLogRegression" {
		t.Error(NapierianLog.String())
	}
	if Family(99).Valid() {
		t.Error("Family(99) should be invalid")
	}
	for _, f := range Families {
		if !f.Valid() {
			t.Errorf("family %v should be valid", f)
		}
	}
}

func TestEvalPaperSort(t *testing.T) {
	// Saturating exponential approaches m for large inputs.
	y, err := paperSort.Eval(100)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !almostEqual(y, 5.768, 1e-6) {
		t.Errorf("Sort(100GB) = %v, want ~5.768 (saturated)", y)
	}
	y, _ = paperSort.Eval(0.1)
	if y <= 0 || y >= 5.768 {
		t.Errorf("Sort(0.1GB) = %v, want in (0, 5.768)", y)
	}
}

func TestEvalPaperPageRank(t *testing.T) {
	// m + ln(x)*b at x=e^2 => 16.333 + 2*1.79.
	y, err := paperPageRank.Eval(math.Exp(2))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !almostEqual(y, 16.333+2*1.79, 1e-9) {
		t.Errorf("PageRank(e^2) = %v", y)
	}
	// Very small x would go negative: clamped to 0.
	y, err = paperPageRank.Eval(1e-9)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if y != 0 {
		t.Errorf("clamped eval = %v, want 0", y)
	}
}

func TestEvalDomainErrors(t *testing.T) {
	if _, err := paperPageRank.Eval(0); !errors.Is(err, ErrOutOfDomain) {
		t.Error("log at 0 should be out of domain")
	}
	if _, err := paperSort.Eval(-1); !errors.Is(err, ErrOutOfDomain) {
		t.Error("negative x should be out of domain")
	}
	lin := Func{Family: LinearPower, M: 2, B: 1}
	if y, err := lin.Eval(0); err != nil || y != 2 {
		t.Errorf("linear at 0: %v, %v (affine intercept)", y, err)
	}
	if _, err := (Func{Family: Family(42)}).Eval(1); err == nil {
		t.Error("unknown family must error")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	fns := []Func{
		{Family: LinearPower, M: 0.02, B: 1.0},
		{Family: LinearPower, M: 0.5, B: 0.8},
		paperSort,
		paperPageRank,
	}
	for _, fn := range fns {
		for _, budget := range []float64{0.5, 2, 5} {
			x, err := fn.Invert(budget)
			if err != nil {
				t.Fatalf("%v Invert(%v): %v", fn, budget, err)
			}
			if math.IsInf(x, 1) {
				// Bounded family under a generous budget: any x fits.
				if fn.Family == Exponential && budget >= fn.M {
					continue
				}
				t.Fatalf("%v Invert(%v) = +Inf unexpectedly", fn, budget)
			}
			y, err := fn.Eval(x)
			if err != nil {
				t.Fatalf("%v Eval(%v): %v", fn, x, err)
			}
			if !almostEqual(y, budget, 1e-6*math.Max(1, budget)) {
				t.Errorf("%v: Eval(Invert(%v)) = %v", fn, budget, y)
			}
		}
	}
}

func TestInvertEdgeCases(t *testing.T) {
	if x, _ := paperSort.Invert(0); x != 0 {
		t.Error("zero budget must give zero items")
	}
	if x, _ := paperSort.Invert(100); !math.IsInf(x, 1) {
		t.Error("budget above exponential ceiling must give +Inf")
	}
	if _, err := (Func{Family: Family(42)}).Invert(1); err == nil {
		t.Error("unknown family must error")
	}
}

func makeCurvePoints(fn Func, xs []float64, noise float64, rng *rand.Rand) []Point {
	pts := make([]Point, 0, len(xs))
	for _, x := range xs {
		y, err := fn.Eval(x)
		if err != nil || y <= 0 {
			continue
		}
		if noise > 0 {
			y *= 1 + rng.NormFloat64()*noise
		}
		if y > 0 {
			pts = append(pts, Point{X: x, Y: y})
		}
	}
	return pts
}

var sweepXs = []float64{0.001, 0.01, 0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000}

func TestFitRecoversLinearPower(t *testing.T) {
	truth := Func{Family: LinearPower, M: 0.031, B: 0.97}
	pts := makeCurvePoints(truth, sweepXs, 0, nil)
	fit, err := FitFamily(LinearPower, pts)
	if err != nil {
		t.Fatalf("FitFamily: %v", err)
	}
	if !almostEqual(fit.Func.M, truth.M, 1e-6) || !almostEqual(fit.Func.B, truth.B, 1e-6) {
		t.Errorf("fit = %v, want %v", fit.Func, truth)
	}
	if fit.R2 < 0.9999 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitRecoversNapierianLog(t *testing.T) {
	pts := makeCurvePoints(paperPageRank, []float64{0.01, 0.1, 1, 10, 100, 1000}, 0, nil)
	fit, err := FitFamily(NapierianLog, pts)
	if err != nil {
		t.Fatalf("FitFamily: %v", err)
	}
	if !almostEqual(fit.Func.M, paperPageRank.M, 1e-6) || !almostEqual(fit.Func.B, paperPageRank.B, 1e-6) {
		t.Errorf("fit = %v, want %v", fit.Func, paperPageRank)
	}
}

func TestFitRecoversExponential(t *testing.T) {
	pts := makeCurvePoints(paperSort, sweepXs, 0, nil)
	fit, err := FitFamily(Exponential, pts)
	if err != nil {
		t.Fatalf("FitFamily: %v", err)
	}
	if math.Abs(fit.Func.M-paperSort.M)/paperSort.M > 0.01 {
		t.Errorf("m = %v, want ~%v", fit.Func.M, paperSort.M)
	}
	if math.Abs(fit.Func.B-paperSort.B)/paperSort.B > 0.05 {
		t.Errorf("b = %v, want ~%v", fit.Func.B, paperSort.B)
	}
}

func TestBestFitPicksTrueFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []Func{
		{Family: LinearPower, M: 0.05, B: 1.0},
		paperSort,
		paperPageRank,
	}
	for _, truth := range cases {
		pts := makeCurvePoints(truth, sweepXs, 0.005, rng)
		best, err := BestFit(pts)
		if err != nil {
			t.Fatalf("BestFit(%v): %v", truth, err)
		}
		if best.Func.Family != truth.Family {
			t.Errorf("BestFit picked %v for truth %v", best.Func.Family, truth.Family)
		}
	}
}

func TestFitInsufficientData(t *testing.T) {
	if _, err := FitFamily(LinearPower, []Point{{X: 1, Y: 1}}); !errors.Is(err, ErrInsufficientData) {
		t.Error("single point must be insufficient")
	}
	// Points with non-positive coordinates are filtered out.
	if _, err := FitFamily(LinearPower, []Point{{X: -1, Y: 1}, {X: 0, Y: 2}, {X: 1, Y: -3}}); !errors.Is(err, ErrInsufficientData) {
		t.Error("unusable points must be insufficient")
	}
	// Duplicate X collapses to one point.
	if _, err := FitFamily(NapierianLog, []Point{{X: 2, Y: 1}, {X: 2, Y: 5}}); !errors.Is(err, ErrInsufficientData) {
		t.Error("duplicate X must be insufficient")
	}
	if _, err := BestFit(nil); err == nil {
		t.Error("BestFit(nil) must error")
	}
}

func TestCalibrateLinearPowerExact(t *testing.T) {
	truth := Func{Family: LinearPower, M: 0.04, B: 1.1}
	p1 := Point{X: 5, Y: truth.MustEval(5)}
	p2 := Point{X: 10, Y: truth.MustEval(10)}
	got, err := Calibrate(LinearPower, p1, p2)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !almostEqual(got.M, truth.M, 1e-9) || !almostEqual(got.B, truth.B, 1e-9) {
		t.Errorf("calibrated %v, want %v", got, truth)
	}
}

func TestCalibrateExponentialExact(t *testing.T) {
	p1 := Point{X: 0.05, Y: paperSort.MustEval(0.05)}
	p2 := Point{X: 0.10, Y: paperSort.MustEval(0.10)}
	got, err := Calibrate(Exponential, p1, p2)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if math.Abs(got.M-paperSort.M)/paperSort.M > 1e-6 {
		t.Errorf("m = %v, want %v", got.M, paperSort.M)
	}
	if math.Abs(got.B-paperSort.B)/paperSort.B > 1e-6 {
		t.Errorf("b = %v, want %v", got.B, paperSort.B)
	}
}

func TestCalibrateNapierianLogExact(t *testing.T) {
	p1 := Point{X: 2, Y: paperPageRank.MustEval(2)}
	p2 := Point{X: 20, Y: paperPageRank.MustEval(20)}
	got, err := Calibrate(NapierianLog, p1, p2)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !almostEqual(got.M, paperPageRank.M, 1e-9) || !almostEqual(got.B, paperPageRank.B, 1e-9) {
		t.Errorf("calibrated %v, want %v", got, paperPageRank)
	}
}

func TestCalibrateSwapsPoints(t *testing.T) {
	truth := Func{Family: LinearPower, M: 1, B: 1}
	// Points given in descending X order must still calibrate.
	got, err := Calibrate(LinearPower, Point{X: 10, Y: 10}, Point{X: 5, Y: 5})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !almostEqual(got.B, truth.B, 1e-9) {
		t.Errorf("b = %v", got.B)
	}
}

func TestCalibrateDegenerate(t *testing.T) {
	cases := [][2]Point{
		{{X: 1, Y: 1}, {X: 1, Y: 2}},  // equal X
		{{X: 0, Y: 1}, {X: 2, Y: 2}},  // zero X
		{{X: 1, Y: 0}, {X: 2, Y: 2}},  // zero Y
		{{X: 1, Y: -1}, {X: 2, Y: 2}}, // negative Y
		{{X: -1, Y: 1}, {X: 2, Y: 2}}, // negative X
	}
	for _, fam := range Families {
		for _, c := range cases {
			if _, err := Calibrate(fam, c[0], c[1]); !errors.Is(err, ErrDegenerateCalibration) {
				t.Errorf("%v %v: want ErrDegenerateCalibration, got %v", fam, c, err)
			}
		}
	}
	if _, err := Calibrate(Family(42), Point{X: 1, Y: 1}, Point{X: 2, Y: 2}); err == nil {
		t.Error("unknown family must error")
	}
}

func TestCalibrateExponentialInfeasible(t *testing.T) {
	// Super-linear growth (y ratio > x ratio) cannot come from a saturating
	// exponential.
	_, err := Calibrate(Exponential, Point{X: 1, Y: 1}, Point{X: 2, Y: 5})
	if !errors.Is(err, ErrInfeasibleCalibration) {
		t.Errorf("want ErrInfeasibleCalibration, got %v", err)
	}
	// Flat footprints mean the curve is saturated: calibration returns a
	// plateau at the observed level rather than failing.
	fn, err := Calibrate(Exponential, Point{X: 1, Y: 2}, Point{X: 2, Y: 2})
	if err != nil {
		t.Fatalf("flat observations should calibrate as saturated: %v", err)
	}
	if y := fn.MustEval(100); math.Abs(y-2) > 1e-6 {
		t.Errorf("saturated plateau = %v, want 2", y)
	}
}

func TestCalibrateWithFallback(t *testing.T) {
	// Infeasible for exponential, feasible for linear-power.
	fn, err := CalibrateWithFallback(Exponential, Point{X: 1, Y: 1}, Point{X: 2, Y: 5})
	if err != nil {
		t.Fatalf("CalibrateWithFallback: %v", err)
	}
	if fn.Family == Exponential {
		t.Errorf("fallback did not switch family: %v", fn)
	}
	// Degenerate points fail outright, no fallback.
	if _, err := CalibrateWithFallback(Exponential, Point{X: 1, Y: 1}, Point{X: 1, Y: 1}); !errors.Is(err, ErrDegenerateCalibration) {
		t.Errorf("want ErrDegenerateCalibration, got %v", err)
	}
}

// Property: calibration from two exact points of a random family member
// recovers a function that agrees with the truth across the whole sweep.
func TestCalibrateRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var truth Func
		switch r.Intn(3) {
		case 0:
			truth = Func{Family: LinearPower, M: 0.01 + r.Float64(), B: 0.5 + r.Float64()}
		case 1:
			truth = Func{Family: Exponential, M: 1 + 30*r.Float64(), B: 0.05 + 5*r.Float64()}
		default:
			truth = Func{Family: NapierianLog, M: 5 + 20*r.Float64(), B: 0.5 + 3*r.Float64()}
		}
		x1 := 0.02 + r.Float64()*0.05
		x2 := 2 * x1
		y1, err1 := truth.Eval(x1)
		y2, err2 := truth.Eval(x2)
		if err1 != nil || err2 != nil || y1 <= 0 || y2 <= 0 {
			return true // skip degenerate draw
		}
		got, err := Calibrate(truth.Family, Point{X: x1, Y: y1}, Point{X: x2, Y: y2})
		if err != nil {
			return true // infeasible draws are acceptable to skip
		}
		for _, x := range []float64{x1, x2, 5 * x2, 50 * x2} {
			want, errW := truth.Eval(x)
			have, errH := got.Eval(x)
			if errW != nil || errH != nil {
				continue
			}
			if want > 1e-9 && math.Abs(have-want)/want > 0.02 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Invert is the right inverse of Eval wherever finite.
func TestInvertProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fams := []Func{
			{Family: LinearPower, M: 0.01 + r.Float64(), B: 0.5 + r.Float64()},
			{Family: Exponential, M: 1 + 30*r.Float64(), B: 0.05 + 5*r.Float64()},
			{Family: NapierianLog, M: 5 + 20*r.Float64(), B: 0.5 + 3*r.Float64()},
		}
		for _, fn := range fams {
			budget := 0.1 + r.Float64()*10
			x, err := fn.Invert(budget)
			if err != nil {
				return false
			}
			if math.IsInf(x, 1) || x == 0 {
				continue
			}
			y, err := fn.Eval(x)
			if err != nil {
				continue
			}
			if math.Abs(y-budget) > 1e-6*math.Max(1, budget) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(100))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFuncString(t *testing.T) {
	for _, fn := range []Func{paperSort, paperPageRank, {Family: LinearPower, M: 1, B: 1}, {Family: Family(9)}} {
		if fn.String() == "" {
			t.Error("empty String()")
		}
	}
}
