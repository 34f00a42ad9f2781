package classify

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs generates n samples from three well-separated Gaussian blobs in
// dim dimensions (labels 1, 2, 3 — enums start at one).
func threeBlobs(r *rand.Rand, n, dim int, spread float64) []Sample {
	centers := make([][]float64, 3)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = float64(c*10) + float64(j%3)
		}
	}
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		c := i % 3
		x := make([]float64, dim)
		for j := range x {
			x[j] = centers[c][j] + r.NormFloat64()*spread
		}
		samples = append(samples, Sample{X: x, Label: c + 1})
	}
	return samples
}

func allClassifiers(seed int64) []Classifier {
	return []Classifier{
		NewKNN(1),
		NewKNN(3),
		NewGaussianNB(),
		NewDecisionTree(0),
		NewRandomForest(25, seed),
		NewMLP([]int{12}, seed),
		NewMLP([]int{16, 8}, seed),
		NewLinearSVM(seed),
	}
}

func TestAllClassifiersSeparableBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	train := threeBlobs(r, 60, 5, 0.5)
	test := threeBlobs(r, 30, 5, 0.5)
	for _, c := range allClassifiers(7) {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s Fit: %v", c.Name(), err)
		}
		correct := 0
		for _, s := range test {
			pred, err := c.Predict(s.X)
			if err != nil {
				t.Fatalf("%s Predict: %v", c.Name(), err)
			}
			if pred == s.Label {
				correct++
			}
		}
		acc := float64(correct) / float64(len(test))
		if acc < 0.95 {
			t.Errorf("%s accuracy %.2f on separable blobs, want >= 0.95", c.Name(), acc)
		}
	}
}

func TestPredictBeforeFit(t *testing.T) {
	for _, c := range allClassifiers(7) {
		if _, err := c.Predict([]float64{1, 2}); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: want ErrNotFitted, got %v", c.Name(), err)
		}
	}
}

func TestFitValidation(t *testing.T) {
	for _, c := range allClassifiers(7) {
		if err := c.Fit(nil); !errors.Is(err, ErrNoSamples) {
			t.Errorf("%s: Fit(nil) want ErrNoSamples, got %v", c.Name(), err)
		}
		ragged := []Sample{{X: []float64{1, 2}, Label: 1}, {X: []float64{1}, Label: 2}}
		if err := c.Fit(ragged); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("%s: ragged fit want ErrDimMismatch, got %v", c.Name(), err)
		}
		empty := []Sample{{X: nil, Label: 1}}
		if err := c.Fit(empty); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("%s: empty-vector fit want ErrDimMismatch, got %v", c.Name(), err)
		}
	}
}

func TestPredictDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	train := threeBlobs(r, 30, 4, 0.3)
	for _, c := range allClassifiers(7) {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s Fit: %v", c.Name(), err)
		}
		if _, err := c.Predict([]float64{1}); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("%s: want ErrDimMismatch, got %v", c.Name(), err)
		}
	}
}

func TestKNNInvalidK(t *testing.T) {
	k := NewKNN(0)
	err := k.Fit([]Sample{{X: []float64{1}, Label: 1}})
	if !errors.Is(err, ErrInvalidParam) {
		t.Errorf("want ErrInvalidParam, got %v", err)
	}
}

func TestKNNDistanceConfidence(t *testing.T) {
	k := NewKNN(1)
	train := []Sample{
		{X: []float64{0, 0}, Label: 1},
		{X: []float64{10, 10}, Label: 2},
	}
	if err := k.Fit(train); err != nil {
		t.Fatal(err)
	}
	label, dist, err := k.PredictWithDistance([]float64{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Errorf("label = %d, want 1", label)
	}
	if math.Abs(dist-0.5) > 1e-12 {
		t.Errorf("distance = %v, want 0.5", dist)
	}
	// A far-away query reports a large distance: the paper's low-confidence
	// fallback trigger.
	_, dist, _ = k.PredictWithDistance([]float64{100, 100})
	if dist < 100 {
		t.Errorf("far query distance = %v, want >= 100", dist)
	}
}

func TestKNNAddIncremental(t *testing.T) {
	k := NewKNN(1)
	if err := k.Add(Sample{X: []float64{1}, Label: 1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("Add before Fit: %v", err)
	}
	if err := k.Fit([]Sample{{X: []float64{0, 0}, Label: 1}, {X: []float64{5, 5}, Label: 2}}); err != nil {
		t.Fatal(err)
	}
	// New expert label becomes selectable with no retraining.
	if err := k.Add(Sample{X: []float64{20, 20}, Label: 3}); err != nil {
		t.Fatal(err)
	}
	pred, err := k.Predict([]float64{19, 19})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 3 {
		t.Errorf("pred = %d, want 3 (newly added expert)", pred)
	}
	if err := k.Add(Sample{X: []float64{1}, Label: 1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Add with wrong dim: %v", err)
	}
}

func TestKNNMajorityVote(t *testing.T) {
	k := NewKNN(3)
	train := []Sample{
		{X: []float64{0}, Label: 1},
		{X: []float64{0.2}, Label: 2},
		{X: []float64{0.3}, Label: 2},
		{X: []float64{50}, Label: 1},
	}
	if err := k.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred, err := k.Predict([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 2 {
		t.Errorf("majority vote = %d, want 2", pred)
	}
}

func TestDecisionTreeAxisAlignedSplit(t *testing.T) {
	// A single threshold on feature 1 separates the classes.
	var train []Sample
	for i := 0; i < 20; i++ {
		x := float64(i)
		label := 1
		if x >= 10 {
			label = 2
		}
		train = append(train, Sample{X: []float64{0.5, x}, Label: label})
	}
	tr := NewDecisionTree(0)
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	if pred, _ := tr.Predict([]float64{0.5, 3}); pred != 1 {
		t.Errorf("pred(3) = %d, want 1", pred)
	}
	if pred, _ := tr.Predict([]float64{0.5, 15}); pred != 2 {
		t.Errorf("pred(15) = %d, want 2", pred)
	}
}

func TestDecisionTreeMaxDepth(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	train := threeBlobs(r, 60, 3, 0.5)
	tr := NewDecisionTree(1) // depth-1 stump cannot be perfect on 3 classes
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	depth := treeDepth(tr.root)
	if depth > 1 {
		t.Errorf("tree depth %d exceeds MaxDepth 1", depth)
	}
}

func treeDepth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := treeDepth(n.left), treeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestSingleClassRejectedWhereRequired(t *testing.T) {
	oneClass := []Sample{{X: []float64{1, 2}, Label: 1}, {X: []float64{2, 3}, Label: 1}}
	if err := NewMLP([]int{4}, 1).Fit(oneClass); !errors.Is(err, ErrSingleClass) {
		t.Errorf("MLP single-class: %v", err)
	}
	if err := NewLinearSVM(1).Fit(oneClass); !errors.Is(err, ErrSingleClass) {
		t.Errorf("SVM single-class: %v", err)
	}
	// KNN, NB, trees handle a single class gracefully.
	for _, c := range []Classifier{NewKNN(1), NewGaussianNB(), NewDecisionTree(0), NewRandomForest(5, 1)} {
		if err := c.Fit(oneClass); err != nil {
			t.Errorf("%s single-class fit: %v", c.Name(), err)
		}
		pred, err := c.Predict([]float64{1, 2})
		if err != nil || pred != 1 {
			t.Errorf("%s single-class predict = %d, %v", c.Name(), pred, err)
		}
	}
}

func TestLeaveOneOutAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	samples := threeBlobs(r, 24, 4, 0.4)
	acc, err := LeaveOneOutAccuracyParallel(func() Classifier { return NewKNN(1) }, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("LOOCV accuracy = %v, want >= 0.9", acc)
	}
	if _, err := LeaveOneOutAccuracyParallel(func() Classifier { return NewKNN(1) }, samples[:1], 1); !errors.Is(err, ErrNoSamples) {
		t.Errorf("short LOOCV: %v", err)
	}
}

func TestRegistryCoversTable5(t *testing.T) {
	reg := Registry(5)
	names := RegistryNames()
	if len(names) != 7 {
		t.Fatalf("Table 5 has 7 classifiers, registry names = %d", len(names))
	}
	for _, n := range names {
		factory, ok := reg[n]
		if !ok {
			t.Errorf("registry missing %q", n)
			continue
		}
		c := factory()
		if c == nil {
			t.Errorf("factory %q returned nil", n)
		}
	}
}

// Property: every classifier is deterministic given the same seed and data.
func TestClassifiersDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(41))
		train := threeBlobs(r1, 30, 4, 0.6)
		queries := threeBlobs(rand.New(rand.NewSource(42)), 12, 4, 0.6)
		for _, mk := range []func() Classifier{
			func() Classifier { return NewKNN(3) },
			func() Classifier { return NewGaussianNB() },
			func() Classifier { return NewDecisionTree(0) },
			func() Classifier { return NewRandomForest(10, seed) },
			func() Classifier { return NewMLP([]int{8}, seed) },
			func() Classifier { return NewLinearSVM(seed) },
		} {
			a, b := mk(), mk()
			if err := a.Fit(train); err != nil {
				return false
			}
			if err := b.Fit(train); err != nil {
				return false
			}
			for _, q := range queries {
				pa, _ := a.Predict(q.X)
				pb, _ := b.Predict(q.X)
				if pa != pb {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Fatal(err)
	}
}

func TestANNRegressorLearnsLinearMap(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	var samples []RegSample
	for i := 0; i < 200; i++ {
		x := []float64{r.Float64(), r.Float64()}
		samples = append(samples, RegSample{X: x, Y: 3*x[0] + 2*x[1] + 1})
	}
	reg := NewANNRegressor(52)
	if err := reg.Fit(samples); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < 20; i++ {
		x := []float64{r.Float64(), r.Float64()}
		want := 3*x[0] + 2*x[1] + 1
		got, err := reg.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(got - want); e > worst {
			worst = e
		}
	}
	if worst > 0.5 {
		t.Errorf("worst abs error %v, want <= 0.5", worst)
	}
}

func TestANNRegressorValidation(t *testing.T) {
	reg := NewANNRegressor(1)
	if _, err := reg.Predict([]float64{1}); !errors.Is(err, ErrRegressorNotFitted) {
		t.Errorf("predict before fit: %v", err)
	}
	if err := reg.Fit(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("fit nil: %v", err)
	}
	if err := reg.Fit([]RegSample{{X: nil, Y: 1}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("empty vector: %v", err)
	}
	if err := reg.Fit([]RegSample{{X: []float64{1}, Y: 1}, {X: []float64{1, 2}, Y: 2}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("ragged: %v", err)
	}
	good := []RegSample{{X: []float64{1}, Y: 2}, {X: []float64{2}, Y: 4}}
	if err := reg.Fit(good); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Predict([]float64{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("predict wrong dim: %v", err)
	}
}

func TestANNRegressorConstantTarget(t *testing.T) {
	samples := []RegSample{{X: []float64{1}, Y: 7}, {X: []float64{2}, Y: 7}, {X: []float64{3}, Y: 7}}
	reg := NewANNRegressor(3)
	if err := reg.Fit(samples); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Predict([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-7) > 0.5 {
		t.Errorf("constant target predict = %v, want ~7", got)
	}
}

// TestLeaveOneOutParallelMatchesSerial pins the concurrency contract: folds
// are independent, so any worker count yields the serial accuracy.
func TestLeaveOneOutParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	samples := threeBlobs(r, 18, 4, 0.6)
	reg := Registry(99)
	// KNN is deterministic by construction; MLP is the heaviest seeded
	// learner — together they cover both classes of factory.
	for _, name := range []string{"KNN", "MLP"} {
		factory := reg[name]
		serial, err := LeaveOneOutAccuracyParallel(factory, samples, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, workers := range []int{2, 8} {
			par, err := LeaveOneOutAccuracyParallel(factory, samples, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if par != serial {
				t.Errorf("%s: workers=%d accuracy %v != serial %v", name, workers, par, serial)
			}
		}
	}
	if _, err := LeaveOneOutAccuracyParallel(func() Classifier { return NewKNN(1) }, samples[:1], 4); !errors.Is(err, ErrNoSamples) {
		t.Errorf("short sample set: %v", err)
	}
}
