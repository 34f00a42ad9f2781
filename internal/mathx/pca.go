package mathx

import (
	"errors"
	"fmt"
	"math"
)

// PCA is a fitted principal component analysis: a mean vector and a
// projection onto the leading components. It is fitted once on training data
// and then reused to transform unseen samples, exactly as the paper persists
// the PCA transformation matrix for runtime deployment.
type PCA struct {
	// Mean is the per-dimension mean of the training data.
	Mean []float64
	// Components holds one principal axis per column (dims x k).
	Components *Matrix
	// Explained holds the eigenvalue (variance) of every component of the
	// full decomposition, descending, not just the k kept ones.
	Explained []float64
	// K is the number of components kept.
	K int
}

// FitPCA fits a PCA on x (rows = samples, cols = dimensions) keeping k
// components. If k <= 0, enough components are kept to explain at least
// varTarget of the variance (the paper keeps the top 5 PCs / 95 %).
func FitPCA(x *Matrix, k int, varTarget float64) (*PCA, error) {
	if x.Rows < 2 {
		return nil, errors.New("mathx: PCA needs at least 2 samples")
	}
	cov, err := Covariance(x)
	if err != nil {
		return nil, err
	}
	eig, err := JacobiEigen(cov)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range eig.Values {
		if v > 0 {
			total += v
		}
	}
	if k <= 0 {
		if varTarget <= 0 || varTarget > 1 {
			return nil, fmt.Errorf("mathx: invalid variance target %v", varTarget)
		}
		cum := 0.0
		k = len(eig.Values)
		for i, v := range eig.Values {
			if v > 0 {
				cum += v
			}
			if total > 0 && cum/total >= varTarget {
				k = i + 1
				break
			}
		}
	}
	if k > x.Cols {
		k = x.Cols
	}
	mean := make([]float64, x.Cols)
	for j := 0; j < x.Cols; j++ {
		var s float64
		for i := 0; i < x.Rows; i++ {
			s += x.At(i, j)
		}
		mean[j] = s / float64(x.Rows)
	}
	comp := NewMatrix(x.Cols, k)
	for c := 0; c < k; c++ {
		for r := 0; r < x.Cols; r++ {
			comp.Set(r, c, eig.Vectors.At(r, c))
		}
	}
	return &PCA{Mean: mean, Components: comp, Explained: eig.Values, K: k}, nil
}

// Transform projects a single sample onto the kept components.
func (p *PCA) Transform(sample []float64) ([]float64, error) {
	out := make([]float64, p.K)
	if err := p.TransformInto(sample, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TransformInto projects a single sample onto the kept components, writing
// them into out, which must hold K values. It allocates nothing: each
// centred value is rounded before its multiply, as a separate centring pass
// would round it.
func (p *PCA) TransformInto(sample, out []float64) error {
	if len(sample) != len(p.Mean) {
		return fmt.Errorf("mathx: PCA transform dim %d, want %d", len(sample), len(p.Mean))
	}
	if len(out) != p.K {
		return fmt.Errorf("mathx: PCA transform into %d slots, want %d", len(out), p.K)
	}
	for c := range out {
		var s float64
		for r, x := range sample {
			s += p.Components.At(r, c) * (x - p.Mean[r])
		}
		out[c] = s
	}
	return nil
}

// ExplainedRatio returns, for each component of the full decomposition, the
// fraction of total variance it explains (Figure 4a of the paper).
func (p *PCA) ExplainedRatio() []float64 {
	total := 0.0
	for _, v := range p.Explained {
		if v > 0 {
			total += v
		}
	}
	out := make([]float64, len(p.Explained))
	if total == 0 {
		return out
	}
	for i, v := range p.Explained {
		if v > 0 {
			out[i] = v / total
		}
	}
	return out
}

// Varimax applies the Kaiser Varimax rotation to a loadings matrix
// (features x factors) and returns the rotated loadings. It is used to
// attribute variance contributions back to raw features (Figure 4b).
func Varimax(loadings *Matrix, maxIter int, tol float64) *Matrix {
	l := loadings.Clone()
	p := l.Rows
	k := l.Cols
	if k < 2 {
		return l
	}
	prev := varimaxCriterion(l)
	for iter := 0; iter < maxIter; iter++ {
		for a := 0; a < k-1; a++ {
			for b := a + 1; b < k; b++ {
				var u, v2, num, den float64
				// Accumulate the rotation angle terms for the (a,b) plane.
				var sumU, sumV, sumUV, sumU2V2 float64
				for i := 0; i < p; i++ {
					x := l.At(i, a)
					y := l.At(i, b)
					u = x*x - y*y
					v2 = 2 * x * y
					sumU += u
					sumV += v2
					sumUV += u * v2
					sumU2V2 += u*u - v2*v2
				}
				num = 2 * (float64(p)*sumUV - sumU*sumV)
				den = float64(p)*sumU2V2 - (sumU*sumU - sumV*sumV)
				if math.Abs(num) < 1e-15 && math.Abs(den) < 1e-15 {
					continue
				}
				phi := 0.25 * math.Atan2(num, den)
				if math.Abs(phi) < 1e-12 {
					continue
				}
				c := math.Cos(phi)
				s := math.Sin(phi)
				for i := 0; i < p; i++ {
					x := l.At(i, a)
					y := l.At(i, b)
					l.Set(i, a, c*x+s*y)
					l.Set(i, b, -s*x+c*y)
				}
			}
		}
		cur := varimaxCriterion(l)
		if math.Abs(cur-prev) < tol {
			break
		}
		prev = cur
	}
	return l
}

// varimaxCriterion is the raw varimax objective: the sum over factors of the
// variance of squared loadings.
func varimaxCriterion(l *Matrix) float64 {
	p := float64(l.Rows)
	var total float64
	for c := 0; c < l.Cols; c++ {
		var sum, sumSq float64
		for r := 0; r < l.Rows; r++ {
			q := l.At(r, c) * l.At(r, c)
			sum += q
			sumSq += q * q
		}
		total += sumSq/p - (sum/p)*(sum/p)
	}
	return total
}
