// Package memfunc implements the paper's "memory functions" — the experts of
// the mixture-of-experts predictor. Each expert is a two-parameter curve
// family mapping input size x (RDD data items or bytes) to the memory
// footprint y of a Spark executor (Table 1 of the paper):
//
//	Linear:                   y = m + b * x
//	Exponential (saturating): y = m * (1 - e^(-b*x))
//	Napierian logarithmic:    y = m + ln(x) * b
//
// (Table 1 of the paper prints the first family as "y = m * x^b" under the
// heading "(piecewise) linear regression"; we read that as a typesetting
// slip for ordinary linear regression — a power law with a free exponent
// would approximate the other two families and defeat the figure-9
// comparison the paper itself reports.)
//
// A family can be fitted offline on many (x, y) profiling points
// (least-squares, used at training time), or calibrated at runtime from
// exactly two profiling observations (the paper's 5 % / 10 % runs).
package memfunc

import (
	"errors"
	"fmt"
	"math"
)

// Family enumerates the expert curve families.
type Family int

const (
	// LinearPower is the paper's "(piecewise) linear regression" family,
	// y = m + b*x (see the package comment for the Table 1 reading).
	LinearPower Family = iota + 1
	// Exponential is the saturating-exponential family y = m * (1 - e^(-b*x)).
	Exponential
	// NapierianLog is the natural-logarithm family y = m + ln(x) * b.
	NapierianLog
)

// Families lists all expert families in a stable order.
var Families = []Family{LinearPower, Exponential, NapierianLog}

// String returns the human-readable family name used in reports.
func (f Family) String() string {
	switch f {
	case LinearPower:
		return "LinearRegression"
	case Exponential:
		return "ExponentialRegression"
	case NapierianLog:
		return "NapierianLogRegression"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Valid reports whether f is a known family.
func (f Family) Valid() bool {
	return f == LinearPower || f == Exponential || f == NapierianLog
}

// Func is an instantiated memory function: a family with concrete
// coefficients M and B. X is measured in gigabytes of input, Y in gigabytes
// of executor footprint.
type Func struct {
	Family Family
	M, B   float64
}

// ErrOutOfDomain is returned when a function is evaluated outside the domain
// where the family is meaningful (e.g. log at x <= 0).
var ErrOutOfDomain = errors.New("memfunc: input size outside function domain")

// Eval returns the predicted memory footprint for input size x.
func (f Func) Eval(x float64) (float64, error) {
	if x < 0 {
		return 0, ErrOutOfDomain
	}
	switch f.Family {
	case LinearPower:
		v := f.M + f.B*x
		if v < 0 {
			v = 0
		}
		return v, nil
	case Exponential:
		return f.M * (1 - math.Exp(-f.B*x)), nil
	case NapierianLog:
		if x <= 0 {
			return 0, ErrOutOfDomain
		}
		v := f.M + math.Log(x)*f.B
		if v < 0 {
			v = 0
		}
		return v, nil
	default:
		return 0, fmt.Errorf("memfunc: unknown family %d", int(f.Family))
	}
}

// Invert returns the largest input size x such that Eval(x) <= budget.
// This is the scheduler's central query: how many data items can an executor
// cache under a given memory budget. Returns 0 if no positive x fits, and
// +Inf if the function is bounded below the budget for all x (the scheduler
// then caps by remaining input).
func (f Func) Invert(budget float64) (float64, error) {
	if budget <= 0 {
		return 0, nil
	}
	switch f.Family {
	case LinearPower:
		if f.B <= 0 {
			return math.Inf(1), nil
		}
		// budget = m + b*x  =>  x = (budget - m) / b
		x := (budget - f.M) / f.B
		if x < 0 {
			x = 0
		}
		return x, nil
	case Exponential:
		// Bounded above by m: anything fits if budget >= m.
		if budget >= f.M {
			return math.Inf(1), nil
		}
		if f.M <= 0 || f.B <= 0 {
			return math.Inf(1), nil
		}
		// budget = m(1-e^{-bx}) => x = -ln(1-budget/m)/b
		return -math.Log(1-budget/f.M) / f.B, nil
	case NapierianLog:
		if f.B <= 0 {
			return math.Inf(1), nil
		}
		// budget = m + b ln x => x = e^{(budget-m)/b}
		return math.Exp((budget - f.M) / f.B), nil
	default:
		return 0, fmt.Errorf("memfunc: unknown family %d", int(f.Family))
	}
}

func (f Func) String() string {
	switch f.Family {
	case LinearPower:
		return fmt.Sprintf("y = %.4g + %.4g * x", f.M, f.B)
	case Exponential:
		return fmt.Sprintf("y = %.4g * (1 - e^(-%.4g*x))", f.M, f.B)
	case NapierianLog:
		return fmt.Sprintf("y = %.4g + ln(x) * %.4g", f.M, f.B)
	default:
		return fmt.Sprintf("unknown family %d", int(f.Family))
	}
}
