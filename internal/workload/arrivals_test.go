package workload

import (
	"math"
	"math/rand"
	"testing"
)

type arrivalGen struct {
	name string
	gen  func(n int, rng *rand.Rand) ([]Arrival, error)
}

func generators() []arrivalGen {
	return []arrivalGen{
		{"poisson", func(n int, rng *rand.Rand) ([]Arrival, error) {
			return PoissonArrivals(n, 0.05, rng)
		}},
		{"bursty", func(n int, rng *rand.Rand) ([]Arrival, error) {
			return BurstyArrivals(n, 0.5, 5, 120, rng)
		}},
		{"diurnal", func(n int, rng *rand.Rand) ([]Arrival, error) {
			return DiurnalArrivals(n, 0.05, 0.8, 3600, rng)
		}},
	}
}

func TestArrivalsDeterministicForSeed(t *testing.T) {
	for _, g := range generators() {
		a, err := g.gen(200, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		b, err := g.gen(200, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i := range a {
			// Catalog() allocates fresh *Benchmark values per call, so
			// compare jobs by identity-relevant fields, not pointers.
			if a[i].At != b[i].At || a[i].Job.Bench.FullName() != b[i].Job.Bench.FullName() ||
				a[i].Job.InputGB != b[i].Job.InputGB {
				t.Fatalf("%s: stream diverges at %d: %+v vs %+v", g.name, i, a[i], b[i])
			}
		}
		c, err := g.gen(200, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		same := true
		for i := range a {
			if a[i].At != c[i].At {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced an identical stream", g.name)
		}
	}
}

func TestArrivalsMonotoneNonDecreasing(t *testing.T) {
	for _, g := range generators() {
		arr, err := g.gen(500, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if arr[0].At < 0 {
			t.Errorf("%s: negative first arrival %v", g.name, arr[0].At)
		}
		for i := 1; i < len(arr); i++ {
			if arr[i].At < arr[i-1].At {
				t.Fatalf("%s: arrival %d at %v before predecessor %v", g.name, i, arr[i].At, arr[i-1].At)
			}
		}
	}
}

func TestPoissonEmpiricalRate(t *testing.T) {
	const n, rate = 4000, 0.2
	arr, err := PoissonArrivals(n, rate, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	empirical := float64(n) / arr[n-1].At
	if rel := math.Abs(empirical-rate) / rate; rel > 0.05 {
		t.Errorf("empirical rate %.4f vs configured %.4f (rel err %.3f)", empirical, rate, rel)
	}
}

func TestDiurnalMeanRateNearBase(t *testing.T) {
	// Over many whole periods the sinusoid averages out: the empirical rate
	// approaches the base rate.
	const n, base, period = 4000, 0.5, 600.0
	arr, err := DiurnalArrivals(n, base, 0.9, period, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	empirical := float64(n) / arr[n-1].At
	if rel := math.Abs(empirical-base) / base; rel > 0.10 {
		t.Errorf("empirical rate %.4f vs base %.4f (rel err %.3f)", empirical, base, rel)
	}
}

func TestBurstyHasBurstsAndGaps(t *testing.T) {
	// Within-burst gaps (mean 2s at rate 0.5) must be far shorter than idle
	// gaps (mean 300s); the gap distribution should show both modes.
	arr, err := BurstyArrivals(1000, 0.5, 8, 300, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	short, long := 0, 0
	for i := 1; i < len(arr); i++ {
		gap := arr[i].At - arr[i-1].At
		if gap < 20 {
			short++
		}
		if gap > 100 {
			long++
		}
	}
	if short < 500 {
		t.Errorf("only %d short within-burst gaps, want many", short)
	}
	if long < 50 {
		t.Errorf("only %d long idle gaps, want a clear off phase", long)
	}
}

func TestArrivalsDrawFromWholeCatalog(t *testing.T) {
	arr, err := PoissonArrivals(100, 1, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range arr {
		seen[a.Job.Bench.FullName()] = true
	}
	if len(seen) != len(Catalog()) {
		t.Errorf("stream of 100 jobs covered %d/%d benchmarks; should cycle the whole catalogue", len(seen), len(Catalog()))
	}
}

func TestArrivalGeneratorsValidateParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PoissonArrivals(0, 1, rng); err == nil {
		t.Error("zero-length poisson stream must error")
	}
	if _, err := PoissonArrivals(10, 0, rng); err == nil {
		t.Error("zero rate must error")
	}
	if _, err := PoissonArrivals(10, math.Inf(1), rng); err == nil {
		t.Error("infinite rate must error")
	}
	if _, err := BurstyArrivals(10, 0, 5, 10, rng); err == nil {
		t.Error("zero burst rate must error")
	}
	if _, err := BurstyArrivals(10, 1, 0.5, 10, rng); err == nil {
		t.Error("mean burst below 1 must error")
	}
	if _, err := DiurnalArrivals(10, 1, 1.5, 600, rng); err == nil {
		t.Error("amplitude >= 1 must error")
	}
	if _, err := DiurnalArrivals(10, 1, 0.5, 0, rng); err == nil {
		t.Error("zero period must error")
	}
}

// TestArrivalGeneratorsRejectNonFinite gives each parameter of the bursty
// and diurnal generators NaN and both infinities, one row per parameter. A
// NaN passes a plain "x <= 0" check: a NaN diurnal rate, amplitude or period
// makes the thinning loop reject every draw forever, and a NaN or infinite
// bursty parameter puts NaN or +Inf submission times into the stream.
func TestArrivalGeneratorsRejectNonFinite(t *testing.T) {
	cases := []struct {
		param string
		gen   func(x float64, rng *rand.Rand) ([]Arrival, error)
	}{
		{"bursty rate", func(x float64, rng *rand.Rand) ([]Arrival, error) {
			return BurstyArrivals(10, x, 5, 120, rng)
		}},
		{"bursty mean burst", func(x float64, rng *rand.Rand) ([]Arrival, error) {
			return BurstyArrivals(10, 0.5, x, 120, rng)
		}},
		{"bursty idle", func(x float64, rng *rand.Rand) ([]Arrival, error) {
			return BurstyArrivals(10, 0.5, 5, x, rng)
		}},
		{"diurnal base rate", func(x float64, rng *rand.Rand) ([]Arrival, error) {
			return DiurnalArrivals(10, x, 0.8, 3600, rng)
		}},
		{"diurnal amplitude", func(x float64, rng *rand.Rand) ([]Arrival, error) {
			return DiurnalArrivals(10, 0.05, x, 3600, rng)
		}},
		{"diurnal period", func(x float64, rng *rand.Rand) ([]Arrival, error) {
			return DiurnalArrivals(10, 0.05, 0.8, x, rng)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.param, func(t *testing.T) {
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if _, err := tc.gen(x, rand.New(rand.NewSource(1))); err == nil {
					t.Errorf("%s %v accepted", tc.param, x)
				}
			}
		})
	}
}
