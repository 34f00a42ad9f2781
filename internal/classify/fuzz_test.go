package classify

import (
	"testing"
)

// FuzzKNNIndexMatchesLinear fuzzes the gate's query, the single-pass top-K
// scan in predict, against the linear stable-sort reference in knn_test.go.
// The name and the seed corpus under testdata/fuzz date from the k-d tree
// index the scan replaced; the corpus still holds the tie-heavy training sets
// written to stress that index. The input bytes are decoded into a training
// set on a coarse coordinate grid — so the fuzzer can construct exact
// duplicates and equal-distance ties, the cases where tie-break order could
// diverge — plus K from 1 to 7 and an optional per-label bias. Every query
// must agree bit-identically: same label, same float64 distance.
func FuzzKNNIndexMatchesLinear(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, false)
	f.Add([]byte{3, 8, 8, 8, 8, 1, 8, 8, 8, 8, 2}, true)
	f.Add([]byte{1, 0, 0, 4, 1, 0, 2, 4, 3}, true)
	f.Fuzz(func(t *testing.T, data []byte, biased bool) {
		if len(data) < 3 {
			t.Skip("not enough bytes for one sample")
		}
		dim := 1 + int(data[0]%4)
		kk := 1 + int(data[0]/4%7)
		body := data[1:]
		per := dim + 1 // dim coordinate bytes plus a label byte
		n := len(body) / per
		if n == 0 {
			t.Skip("not enough bytes for one sample")
		}
		if n > 128 {
			n = 128
		}
		samples := make([]Sample, n)
		for i := range samples {
			chunk := body[i*per : (i+1)*per]
			x := make([]float64, dim)
			for j := range x {
				// Grid coordinates: 16 distinct values force frequent ties.
				x[j] = float64(chunk[j]%16) * 0.25
			}
			samples[i] = Sample{X: x, Label: int(chunk[dim] % 4)}
		}

		k := NewKNN(kk)
		if err := k.Fit(samples); err != nil {
			t.Fatalf("fit: %v", err)
		}

		var bias func(label int) float64
		if biased {
			var biases [4]float64
			for i := range biases {
				// 0.25..2 in steps of 0.25: shrinking and inflating.
				biases[i] = 0.25 + float64(data[(i*3+1)%len(data)]%8)*0.25
			}
			bias = func(label int) float64 { return biases[label] }
		}

		check := func(x []float64) {
			t.Helper()
			wantLabel, wantDist := stableSortPredict(k, x, bias)
			label, dist, err := k.predict(x, bias)
			if err != nil {
				t.Fatal(err)
			}
			if label != wantLabel || dist != wantDist {
				t.Fatalf("query %v (n=%d dim=%d K=%d biased=%v): scan (%d, %v), stable sort (%d, %v)",
					x, n, dim, kk, biased, label, dist, wantLabel, wantDist)
			}
		}

		// Exact-hit queries on every training point: distance-zero ties must
		// break identically.
		for i := 0; i < n && i < 16; i++ {
			check(samples[i].X)
		}
		// Off-grid query assembled from the raw bytes.
		q := make([]float64, dim)
		for j := range q {
			q[j] = float64(body[(j*7)%len(body)]) / 64
		}
		check(q)
	})
}
