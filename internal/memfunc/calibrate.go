package memfunc

import (
	"errors"
	"fmt"
	"math"
)

// Calibration errors.
var (
	// ErrDegenerateCalibration is returned when the two profiling points do
	// not determine the coefficients (equal X, non-positive values, ...).
	ErrDegenerateCalibration = errors.New("memfunc: degenerate calibration points")
	// ErrInfeasibleCalibration is returned when no member of the family can
	// pass through the two points (e.g. a saturating exponential through a
	// super-linear pair). Callers should fall back to another family or a
	// conservative policy, as the paper's runtime falls back when the KNN
	// confidence is low.
	ErrInfeasibleCalibration = errors.New("memfunc: points infeasible for family")
)

// Calibrate instantiates the two coefficients (m, b) of the given family from
// exactly two profiling observations. This is the paper's runtime model
// calibration: the application is run on 5 % and 10 % of the input items and
// the measured footprints pin down the curve.
func Calibrate(family Family, p1, p2 Point) (Func, error) {
	if p1.X > p2.X {
		p1, p2 = p2, p1
	}
	if p1.X <= 0 || p2.X <= 0 || p1.X == p2.X {
		return Func{}, ErrDegenerateCalibration
	}
	if p1.Y <= 0 || p2.Y <= 0 {
		return Func{}, ErrDegenerateCalibration
	}
	switch family {
	case LinearPower:
		return calibrateLinearPower(p1, p2)
	case Exponential:
		return calibrateExponential(p1, p2)
	case NapierianLog:
		return calibrateNapierianLog(p1, p2)
	default:
		return Func{}, fmt.Errorf("memfunc: unknown family %d", int(family))
	}
}

func calibrateLinearPower(p1, p2 Point) (Func, error) {
	// y = m + b*x through both points.
	b := (p2.Y - p1.Y) / (p2.X - p1.X)
	m := p1.Y - b*p1.X
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return Func{}, ErrDegenerateCalibration
	}
	return Func{Family: LinearPower, M: m, B: b}, nil
}

func calibrateNapierianLog(p1, p2 Point) (Func, error) {
	// y = m + b ln x through both points.
	b := (p2.Y - p1.Y) / (math.Log(p2.X) - math.Log(p1.X))
	m := p1.Y - b*math.Log(p1.X)
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return Func{}, ErrDegenerateCalibration
	}
	return Func{Family: NapierianLog, M: m, B: b}, nil
}

func calibrateExponential(p1, p2 Point) (Func, error) {
	// y = m (1 - e^{-bx}). The footprint ratio
	//   rho(b) = (1 - e^{-b x2}) / (1 - e^{-b x1})
	// decreases monotonically from x2/x1 (b -> 0) to 1 (b -> inf), so the
	// observed ratio y2/y1 must lie strictly inside (1, x2/x1).
	target := p2.Y / p1.Y
	upper := p2.X / p1.X
	if target <= 1 {
		// Flat (or noise-decreasing) observations mean the curve is already
		// saturated at both profiling sizes: the amplitude is the observed
		// plateau and the rate is fast enough to saturate well before p1.
		m := p1.Y
		if p2.Y > m {
			m = p2.Y
		}
		return Func{Family: Exponential, M: m, B: 5 / p1.X}, nil
	}
	if target >= upper {
		return Func{}, ErrInfeasibleCalibration
	}
	b, _, ok := bisectExponentialRate(p1, p2, target)
	if !ok {
		return Func{}, ErrInfeasibleCalibration
	}
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

// bisectExponentialRate finds the rate b at which the saturating
// exponential's footprint ratio rho(b) = (1 - e^{-b x2}) / (1 - e^{-b x1})
// meets target, and reports how many bisection steps it took; ok is false
// when no bracket holds the root. The bisection runs at most 200 steps, but
// each step depends only on (lo, hi), so once a step leaves both unchanged
// no later step could move them: the loop stops there, and the rate is
// bit-identical to the full run's.
func bisectExponentialRate(p1, p2 Point, target float64) (rate float64, steps int, ok bool) {
	rho := func(b float64) float64 {
		return (1 - math.Exp(-b*p2.X)) / (1 - math.Exp(-b*p1.X))
	}
	// Bracket the root: rho is decreasing, find lo with rho(lo) > target and
	// hi with rho(hi) < target.
	lo, hi := 1e-12, 1.0
	for rho(hi) > target {
		hi *= 2
		if hi > 1e15 {
			return 0, 0, false
		}
	}
	for steps < 200 {
		mid := (lo + hi) / 2
		steps++
		if rho(mid) > target {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2, steps, true
}

// CalibrateWithFallback calibrates the predicted family, and if the two
// observations are infeasible for it, retries the remaining families in
// order of plausibility. This mirrors the paper's graceful-degradation note:
// a bad expert pick should degrade accuracy, not crash the scheduler.
func CalibrateWithFallback(family Family, p1, p2 Point) (Func, error) {
	fn, err := Calibrate(family, p1, p2)
	if err == nil {
		return fn, nil
	}
	if errors.Is(err, ErrDegenerateCalibration) {
		return Func{}, err
	}
	for _, alt := range Families {
		if alt == family {
			continue
		}
		if fn, altErr := Calibrate(alt, p1, p2); altErr == nil {
			return fn, nil
		}
	}
	return Func{}, err
}
