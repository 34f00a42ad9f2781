package memfunc

import (
	"math"
	"math/rand"
	"testing"
)

// refCalibrateExponential is calibrateExponential with the bisection run for
// all 200 steps, the reference the fixed-point exit is checked against.
func refCalibrateExponential(p1, p2 Point) (Func, error) {
	target := p2.Y / p1.Y
	upper := p2.X / p1.X
	if target <= 1 {
		m := p1.Y
		if p2.Y > m {
			m = p2.Y
		}
		return Func{Family: Exponential, M: m, B: 5 / p1.X}, nil
	}
	if target >= upper {
		return Func{}, ErrInfeasibleCalibration
	}
	rho := func(b float64) float64 {
		return (1 - math.Exp(-b*p2.X)) / (1 - math.Exp(-b*p1.X))
	}
	lo, hi := 1e-12, 1.0
	for rho(hi) > target {
		hi *= 2
		if hi > 1e15 {
			return Func{}, ErrInfeasibleCalibration
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if rho(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	b := (lo + hi) / 2
	den := 1 - math.Exp(-b*p1.X)
	if den <= 0 {
		return Func{}, ErrInfeasibleCalibration
	}
	m := p1.Y / den
	if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		return Func{}, ErrInfeasibleCalibration
	}
	return Func{Family: Exponential, M: m, B: b}, nil
}

// The bisection's early exit must return exactly the coefficients of the
// full 200-step loop, on feasible pairs spanning the sizes and ratios the
// profiling runs produce and far beyond: x1 from e^-9 to e^5, x2/x1 up to
// 21, and y2/y1 strictly inside (1, x2/x1). It must also actually stop
// early.
func TestCalibrateExponentialStopsAtFixedPoint(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	rng := rand.New(rand.NewSource(17))
	maxSteps, calibrated := 0, 0
	for i := 0; i < n; i++ {
		x1 := math.Exp(-9 + 14*rng.Float64())
		upper := 1 + 20*(1-rng.Float64()) // (1, 21]
		y1 := math.Exp(-3 + 8*rng.Float64())
		p1 := Point{X: x1, Y: y1}
		p2 := Point{X: x1 * upper, Y: y1 * (1 + rng.Float64()*(upper-1))}
		if !(p2.Y/p1.Y > 1 && p2.Y/p1.Y < p2.X/p1.X) {
			continue // a zero draw or rounding put the ratio on a boundary
		}
		want, wantErr := refCalibrateExponential(p1, p2)
		got, gotErr := Calibrate(Exponential, p1, p2)
		if gotErr != wantErr {
			t.Fatalf("%v %v: err %v, reference %v", p1, p2, gotErr, wantErr)
		}
		if math.Float64bits(got.M) != math.Float64bits(want.M) ||
			math.Float64bits(got.B) != math.Float64bits(want.B) || got.Family != want.Family {
			t.Fatalf("%v %v: got %+v, reference %+v", p1, p2, got, want)
		}
		if _, steps, ok := bisectExponentialRate(p1, p2, p2.Y/p1.Y); ok {
			calibrated++
			maxSteps = max(maxSteps, steps)
		}
	}
	if calibrated < n*9/10 {
		t.Fatalf("only %d of %d draws reached the bisection", calibrated, n)
	}
	if maxSteps > 100 {
		t.Errorf("bisection took up to %d steps, want at most 100", maxSteps)
	}
	t.Logf("%d calibrations, at most %d bisection steps", calibrated, maxSteps)
}
