package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Arrival is one timed job submission for the open-system engine: the job
// enters the cluster queue At seconds into the run. Class tags the submitting
// tenant (see TagArrivals); the zero Class is the untagged single-tenant
// default.
type Arrival struct {
	At    float64
	Job   Job
	Class Class
}

// drawJobStream samples n jobs the way RandomMix does: benchmarks cycle
// through a seeded permutation of the whole catalogue (so long streams cover
// all 44 benchmarks) and each job gets a random input scale.
func drawJobStream(n int, rng *rand.Rand) []Job {
	cat := Catalog()
	perm := rng.Perm(len(cat))
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		b := cat[perm[i%len(cat)]]
		size := InputSizes[rng.Intn(len(InputSizes))]
		jobs = append(jobs, Job{Bench: b, InputGB: size})
	}
	return jobs
}

// timeJobs zips a non-decreasing arrival-time sequence with a job stream.
func timeJobs(times []float64, jobs []Job) []Arrival {
	out := make([]Arrival, len(jobs))
	for i := range jobs {
		out[i] = Arrival{At: times[i], Job: jobs[i]}
	}
	return out
}

// PoissonArrivals generates n jobs arriving as a homogeneous Poisson process
// with the given mean rate (jobs per second): inter-arrival gaps are
// exponential with mean 1/ratePerSec. The same seed yields the identical
// stream.
func PoissonArrivals(n int, ratePerSec float64, rng *rand.Rand) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive stream length, got %d", n)
	}
	if ratePerSec <= 0 || math.IsInf(ratePerSec, 0) || math.IsNaN(ratePerSec) {
		return nil, fmt.Errorf("workload: invalid arrival rate %v jobs/sec", ratePerSec)
	}
	times := make([]float64, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / ratePerSec
		times[i] = t
	}
	return timeJobs(times, drawJobStream(n, rng)), nil
}

// BurstyArrivals generates n jobs from an on/off process: jobs arrive in
// bursts whose sizes are geometric with the given mean, gaps within a burst
// are exponential with mean 1/burstRate, and consecutive bursts are separated
// by exponential idle gaps with mean idleSec. This models the flash-crowd /
// batch-drop traffic the closed setting cannot express.
func BurstyArrivals(n int, burstRate float64, meanBurst float64, idleSec float64, rng *rand.Rand) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive stream length, got %d", n)
	}
	// Written as !(x > 0) and !(x >= y) so NaN fails too, as it does every
	// comparison. An infinite value would put arrivals at +Inf, collapse
	// the gaps within a burst, or make one endless burst.
	if !(burstRate > 0) || !(meanBurst >= 1) || !(idleSec >= 0) ||
		math.IsInf(burstRate, 0) || math.IsInf(meanBurst, 0) || math.IsInf(idleSec, 0) {
		return nil, fmt.Errorf("workload: invalid bursty parameters rate=%v meanBurst=%v idle=%v",
			burstRate, meanBurst, idleSec)
	}
	// Geometric burst sizes with mean meanBurst: continue the burst with
	// probability 1-1/meanBurst after each arrival.
	contP := 1 - 1/meanBurst
	times := make([]float64, n)
	t := 0.0
	inBurst := false
	for i := 0; i < n; i++ {
		if !inBurst {
			t += rng.ExpFloat64() * idleSec
			inBurst = true
		} else {
			t += rng.ExpFloat64() / burstRate
		}
		times[i] = t
		if rng.Float64() >= contP {
			inBurst = false
		}
	}
	return timeJobs(times, drawJobStream(n, rng)), nil
}

// DiurnalArrivals generates n jobs from a non-homogeneous Poisson process
// with a sinusoidal day/night rate profile,
//
//	lambda(t) = baseRate * (1 + amplitude*sin(2*pi*t/periodSec)),
//
// sampled by Lewis-Shedler thinning so the stream is deterministic for a
// given seed. amplitude must lie in [0, 1); the long-run mean rate is
// baseRate.
func DiurnalArrivals(n int, baseRate, amplitude, periodSec float64, rng *rand.Rand) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive stream length, got %d", n)
	}
	// NaN fails every comparison, so the checks are written to fail it: a
	// NaN rate, amplitude or period makes the thinning reject every draw,
	// and the loop below would never end.
	if !(baseRate > 0) || !(amplitude >= 0 && amplitude < 1) || !(periodSec > 0) ||
		math.IsInf(baseRate, 0) || math.IsInf(periodSec, 0) {
		return nil, fmt.Errorf("workload: invalid diurnal parameters base=%v amp=%v period=%v",
			baseRate, amplitude, periodSec)
	}
	maxRate := baseRate * (1 + amplitude)
	times := make([]float64, 0, n)
	t := 0.0
	for len(times) < n {
		t += rng.ExpFloat64() / maxRate
		rate := baseRate * (1 + amplitude*math.Sin(2*math.Pi*t/periodSec))
		if rng.Float64()*maxRate <= rate {
			times = append(times, t)
		}
	}
	return timeJobs(times, drawJobStream(n, rng)), nil
}
