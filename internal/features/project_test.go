package features_test

import (
	"math"
	"math/rand"
	"testing"

	"moespark/internal/features"
	"moespark/internal/moe"
	"moespark/internal/workload"
)

// refTransform and refResidual are the separate projection and
// reconstruction passes that Project fuses, the reference it is checked
// against. refTransform keeps the centring pass that PCA.TransformInto folds
// into its dot products.
func refTransform(p *features.Pipeline, v features.Vector) []float64 {
	scaled := p.Scaler.Apply(v)
	var centered features.Vector
	for i, x := range scaled {
		centered[i] = x - p.PCA.Mean[i]
	}
	out := make([]float64, p.PCA.K)
	for c := 0; c < p.PCA.K; c++ {
		var s float64
		for r := 0; r < len(centered); r++ {
			s += p.PCA.Components.At(r, c) * centered[r]
		}
		out[c] = s
	}
	return out
}

func refResidual(p *features.Pipeline, v features.Vector) float64 {
	scaled := p.Scaler.Apply(v)
	pcs := refTransform(p, v)
	var sum float64
	for r := 0; r < features.NumRaw; r++ {
		recon := p.PCA.Mean[r]
		for c := 0; c < p.PCA.K; c++ {
			recon += p.PCA.Components.At(r, c) * pcs[c]
		}
		d := scaled[r] - recon
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Project and Transform must reproduce the separate passes bit for bit: on
// noisy counters of every catalogue program through the trained default
// pipeline, and on random vectors spanning many decades, most of whose
// features fall outside the scaler's range and get clamped.
func TestProjectMatchesTransformAndResidual(t *testing.T) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	p := model.Pipeline()
	check := func(v features.Vector) {
		t.Helper()
		wantPCs, wantRes := refTransform(p, v), refResidual(p, v)
		pcs := make([]float64, p.Components())
		res, err := p.Project(v, pcs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res) != math.Float64bits(wantRes) {
			t.Fatalf("%v: residual %v, reference %v", v, res, wantRes)
		}
		got, err := p.Transform(v)
		if err != nil {
			t.Fatal(err)
		}
		for c := range pcs {
			if math.Float64bits(pcs[c]) != math.Float64bits(wantPCs[c]) {
				t.Fatalf("%v: PC %d is %v, reference %v", v, c, pcs[c], wantPCs[c])
			}
			if math.Float64bits(got[c]) != math.Float64bits(wantPCs[c]) {
				t.Fatalf("%v: Transform PC %d is %v, reference %v", v, c, got[c], wantPCs[c])
			}
		}
	}

	rng := rand.New(rand.NewSource(2))
	for _, b := range workload.Catalog() {
		for i := 0; i < 50; i++ {
			check(b.Counters(rng))
		}
	}

	n := 100000
	if testing.Short() {
		n = 10000
	}
	clamped := 0
	for i := 0; i < n; i++ {
		var v features.Vector
		for j := range v {
			if rng.Intn(2) == 0 {
				// Around the training range, overshooting it by half a
				// span on either side.
				lo, hi := p.Scaler.Min[j], p.Scaler.Max[j]
				v[j] = lo + (hi-lo)*(2*rng.Float64()-0.5)
			} else {
				// Any magnitude from 1e-3 to 1e6, either sign.
				v[j] = math.Pow(10, -3+9*rng.Float64())
				if rng.Intn(2) == 0 {
					v[j] = -v[j]
				}
			}
			if v[j] < p.Scaler.Min[j] || v[j] > p.Scaler.Max[j] {
				clamped++
			}
		}
		check(v)
	}
	if clamped == 0 {
		t.Fatal("no random feature fell outside the scaler's range")
	}

	if _, err := p.Project(features.Vector{}, make([]float64, p.Components()+1)); err == nil {
		t.Error("Project accepted a PC slice of the wrong length")
	}
}
