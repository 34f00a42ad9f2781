package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJacobiEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := NewMatrixFromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := JacobiEigen(a)
	if err != nil {
		t.Fatalf("JacobiEigen: %v", err)
	}
	if !almostEqual(eig.Values[0], 3, 1e-10) || !almostEqual(eig.Values[1], 1, 1e-10) {
		t.Errorf("eigenvalues = %v, want [3 1]", eig.Values)
	}
}

func TestJacobiEigenRejectsNonSymmetric(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := JacobiEigen(a); err == nil {
		t.Fatal("expected error for non-symmetric input")
	}
	b := NewMatrix(2, 3)
	if _, err := JacobiEigen(b); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 9}})
	eig, err := JacobiEigen(a)
	if err != nil {
		t.Fatalf("JacobiEigen: %v", err)
	}
	want := []float64{9, 5, -2}
	for i := range want {
		if !almostEqual(eig.Values[i], want[i], 1e-12) {
			t.Errorf("values[%d] = %v, want %v", i, eig.Values[i], want[i])
		}
	}
}

// Property: for random symmetric matrices, A v = lambda v for every pair, the
// eigenvector matrix is orthonormal, and the trace equals the eigenvalue sum.
func TestJacobiEigenProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		eig, err := JacobiEigen(a)
		if err != nil {
			return false
		}
		// Trace check.
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += eig.Values[i]
		}
		if !almostEqual(trace, sum, 1e-8) {
			return false
		}
		// Residual check for each eigenpair.
		for c := 0; c < n; c++ {
			v := eig.Vectors.Col(c)
			av, err := a.MulVec(v)
			if err != nil {
				return false
			}
			for i := 0; i < n; i++ {
				if !almostEqual(av[i], eig.Values[c]*v[i], 1e-7) {
					return false
				}
			}
			// Unit norm.
			var norm float64
			for _, x := range v {
				norm += x * x
			}
			if !almostEqual(norm, 1, 1e-8) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPCAOnCorrelatedData(t *testing.T) {
	// Two perfectly correlated dimensions plus one noise dimension: the
	// first PC must capture nearly all variance of the correlated pair.
	r := rand.New(rand.NewSource(1))
	n := 200
	x := NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		v := r.NormFloat64() * 10
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		x.Set(i, 2, r.NormFloat64()*0.01)
	}
	pca, err := FitPCA(x, 0, 0.95)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	if pca.K != 1 {
		t.Errorf("K = %d, want 1 (one dominant direction)", pca.K)
	}
	ratio := pca.ExplainedRatio()
	if ratio[0] < 0.99 {
		t.Errorf("first PC explains %v, want > 0.99", ratio[0])
	}
}

func TestPCATransformDimensions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x := NewMatrix(30, 6)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	pca, err := FitPCA(x, 4, 0)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	out, err := pca.Transform(x.Row(0))
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	if len(out) != 4 {
		t.Errorf("transform output dim %d, want 4", len(out))
	}
	if _, err := pca.Transform([]float64{1}); err == nil {
		t.Error("expected dimension error")
	}
}

// Property: PCA projection preserves pairwise distances when all components
// are kept (it is an orthogonal transform after centering).
func TestPCAFullRankPreservesDistances(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := NewMatrix(40, 5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	pca, err := FitPCA(x, 5, 0)
	if err != nil {
		t.Fatalf("FitPCA: %v", err)
	}
	a, _ := pca.Transform(x.Row(3))
	b, _ := pca.Transform(x.Row(17))
	orig := Euclidean(x.Row(3), x.Row(17))
	proj := Euclidean(a, b)
	if !almostEqual(orig, proj, 1e-8) {
		t.Errorf("distance not preserved: %v vs %v", orig, proj)
	}
}

func TestVarimaxPreservesCommunalities(t *testing.T) {
	// Varimax is an orthogonal rotation: row communalities (sum of squared
	// loadings) must be invariant.
	r := rand.New(rand.NewSource(4))
	l := NewMatrix(10, 3)
	for i := range l.Data {
		l.Data[i] = r.NormFloat64()
	}
	before := make([]float64, l.Rows)
	for i := 0; i < l.Rows; i++ {
		for j := 0; j < l.Cols; j++ {
			before[i] += l.At(i, j) * l.At(i, j)
		}
	}
	rot := Varimax(l, 100, 1e-10)
	for i := 0; i < rot.Rows; i++ {
		var after float64
		for j := 0; j < rot.Cols; j++ {
			after += rot.At(i, j) * rot.At(i, j)
		}
		if !almostEqual(before[i], after, 1e-8) {
			t.Errorf("communality changed for row %d: %v -> %v", i, before[i], after)
		}
	}
}

func TestVarimaxImprovesCriterion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	l := NewMatrix(12, 4)
	for i := range l.Data {
		l.Data[i] = r.NormFloat64()
	}
	before := varimaxCriterion(l)
	rot := Varimax(l, 200, 1e-12)
	after := varimaxCriterion(rot)
	if after+1e-12 < before {
		t.Errorf("varimax decreased criterion: %v -> %v", before, after)
	}
}

func TestVarimaxSingleFactorNoop(t *testing.T) {
	l := NewMatrix(5, 1)
	for i := range l.Data {
		l.Data[i] = float64(i)
	}
	rot := Varimax(l, 10, 1e-9)
	for i := range l.Data {
		if rot.Data[i] != l.Data[i] {
			t.Fatal("single-factor varimax must be a no-op")
		}
	}
}

func TestStatsBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEqual(StdDev(xs), math.Sqrt(2.5), 1e-12) {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %v", Median(xs))
	}
	if !almostEqual(GeoMean([]float64{1, 4}), 2, 1e-12) {
		t.Errorf("GeoMean = %v", GeoMean([]float64{1, 4}))
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("GeoMean with non-positive input should be 0")
	}
	lo, hi := MinMax(xs)
	if lo != 1 || hi != 5 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("percentile extremes wrong")
	}
	if !almostEqual(Percentile(xs, 25), 2, 1e-12) {
		t.Errorf("P25 = %v", Percentile(xs, 25))
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
	yneg := []float64{8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("expected constant-input error")
	}
}

func TestRelativeErrorAndClamp(t *testing.T) {
	if !almostEqual(RelativeError(105, 100), 0.05, 1e-12) {
		t.Error("RelativeError(105,100)")
	}
	if RelativeError(0, 0) != 0 {
		t.Error("RelativeError(0,0) should be 0")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("RelativeError(1,0) should be +Inf")
	}
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp behavior wrong")
	}
}

func TestMeanConfidence95(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	m, hw := MeanConfidence95(xs)
	if m != 10 || hw != 0 {
		t.Errorf("constant data: mean=%v hw=%v", m, hw)
	}
	_, hw = MeanConfidence95([]float64{1})
	if !math.IsInf(hw, 1) {
		t.Error("single sample should give infinite half-width")
	}
}
