package classify

import (
	"math/rand"
	"sort"
	"testing"

	"moespark/internal/mathx"
)

// stableSortPredict is the gate's former query path, kept here as the
// differential reference for KNN.predict: score every sample, rank them all
// with a stable sort, count the K nearest labels' votes in a map, and pick
// the first label in distance order holding the most votes.
func stableSortPredict(k *KNN, x []float64, bias func(label int) float64) (label int, nearest float64) {
	neighs := make([]neigh, len(k.samples))
	for i, s := range k.samples {
		d := mathx.Euclidean(x, s.X)
		if bias != nil {
			d *= bias(s.Label)
		}
		neighs[i] = neigh{dist: d, label: s.Label}
	}
	sort.SliceStable(neighs, func(a, b int) bool { return neighs[a].dist < neighs[b].dist })
	kk := min(k.K, len(neighs))
	votes := map[int]int{}
	for _, n := range neighs[:kk] {
		votes[n.label]++
	}
	best, bestVotes := neighs[0].label, -1
	for _, n := range neighs[:kk] {
		if v := votes[n.label]; v > bestVotes {
			best, bestVotes = n.label, v
		}
	}
	return best, neighs[0].dist
}

// gridPoint draws a point whose coordinates sit on a four-value grid, so
// distances between grid points repeat exactly and ties are common.
func gridPoint(rng *rand.Rand, dim int) []float64 {
	x := make([]float64, dim)
	for j := range x {
		x[j] = float64(rng.Intn(4)) * 0.25
	}
	return x
}

// gridSamples draws n grid-valued samples over four labels; about a third
// duplicate an earlier sample's point, possibly under another label.
func gridSamples(rng *rand.Rand, n, dim int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		x := gridPoint(rng, dim)
		if i > 0 && rng.Intn(3) == 0 {
			copy(x, samples[rng.Intn(i)].X)
		}
		samples[i] = Sample{X: x, Label: rng.Intn(4)}
	}
	return samples
}

// TestKNNScanMatchesStableSort pins the single-pass scan to the stable-sort
// reference for K from 1 to 7, with and without a label bias. Samples and
// queries sit on a grid, and bias multipliers are powers of two, so exact
// distance ties stay exact ties after scaling; both the neighbour ranking
// and the vote tie-break must agree, and the distance must be the same
// float64. K above the sample count and a mid-stream Add are covered too.
func TestKNNScanMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		dim := 1 + rng.Intn(4)
		samples := gridSamples(rng, n, dim)
		var biases [4]float64
		for i := range biases {
			biases[i] = []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		}
		for kk := 1; kk <= 7; kk++ {
			k := NewKNN(kk)
			if err := k.Fit(samples); err != nil {
				t.Fatal(err)
			}
			for _, bias := range []func(int) float64{nil, func(l int) float64 { return biases[l] }} {
				check := func(x []float64) {
					t.Helper()
					wantLabel, wantDist := stableSortPredict(k, x, bias)
					label, dist, err := k.predict(x, bias)
					if err != nil {
						t.Fatal(err)
					}
					if label != wantLabel || dist != wantDist {
						t.Fatalf("trial %d K=%d n=%d biased=%v query %v: scan (%d, %v), stable sort (%d, %v)",
							trial, kk, len(k.samples), bias != nil, x, label, dist, wantLabel, wantDist)
					}
				}
				for q := 0; q < 8; q++ {
					check(gridPoint(rng, dim))
				}
				check(samples[rng.Intn(n)].X)
				if err := k.Add(Sample{X: gridPoint(rng, dim), Label: rng.Intn(4)}); err != nil {
					t.Fatal(err)
				}
				check(gridPoint(rng, dim))
			}
		}
	}
}

// TestKNNTieBreakInsertionOrder pins the equal-distance tie rule: among
// equidistant neighbours, the first-inserted sample wins. The scheduler's
// golden outputs depend on this — a different-but-equally-near expert would
// calibrate a different curve.
func TestKNNTieBreakInsertionOrder(t *testing.T) {
	// Four samples at the corners of a square, query at the centre: all
	// equidistant, labels all distinct. Insertion order decides.
	samples := []Sample{
		{X: []float64{0, 0}, Label: 2},
		{X: []float64{1, 0}, Label: 0},
		{X: []float64{0, 1}, Label: 3},
		{X: []float64{1, 1}, Label: 1},
	}
	center := []float64{0.5, 0.5}
	k := NewKNN(1)
	if err := k.Fit(samples); err != nil {
		t.Fatal(err)
	}
	label, _, err := k.PredictWithDistance(center)
	if err != nil {
		t.Fatal(err)
	}
	if label != 2 {
		t.Errorf("tie broke to label %d, want first-inserted label 2", label)
	}
	// A later Add of yet another equidistant sample (a duplicate corner, so
	// its distance is bit-identical) must not steal the tie from the
	// first-inserted one.
	if err := k.Add(Sample{X: []float64{1, 1}, Label: 9}); err != nil {
		t.Fatal(err)
	}
	label, _, err = k.PredictWithDistance(center)
	if err != nil {
		t.Fatal(err)
	}
	if label != 2 {
		t.Errorf("post-Add: tie broke to label %d, want 2", label)
	}
	// Under a uniform bias the scaled distances still tie; the rule must
	// hold on the biased path too.
	label, _, err = k.PredictBiased(center, func(int) float64 { return 1.5 })
	if err != nil {
		t.Fatal(err)
	}
	if label != 2 {
		t.Errorf("biased: tie broke to label %d, want 2", label)
	}
}

// TestKNNBiasedQueryAllocatesNothing pins the gate's hot path, a K=1 biased
// query, at zero heap allocations.
func TestKNNBiasedQueryAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewKNN(1)
	if err := k.Fit(gridSamples(rng, 44, 5)); err != nil {
		t.Fatal(err)
	}
	x := gridPoint(rng, 5)
	bias := func(l int) float64 { return 1 + 0.1*float64(l) }
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := k.PredictBiased(x, bias); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("K=1 biased query allocates %v times, want 0", allocs)
	}
}
