package workload

import (
	"fmt"
	"math"
	"math/rand"

	"moespark/internal/memfunc"
)

// This file generates non-stationary (drifting) arrival streams: workloads
// whose input distribution shifts mid-run. A model calibrated once per
// submission keeps up with a stationary stream; these generators produce the
// regimes where a feedback-driven predictor should pull ahead. The drift
// dimension that actually breaks a trained gate is the runtime *signature*:
// when a program's cache counters move toward another family's cluster
// (Benchmark.CounterSkew), the gate confidently selects the wrong expert and
// the two-point calibration extrapolates on the wrong curve shape — errors
// of 10x and more at large inputs, exactly the stale-prediction cost a
// memory-pressure-sensitive co-location scheduler cannot afford.

// skewedCohort copies a benchmark with drifted counters when it belongs to
// the drift cohort (one growing-footprint family — think of a
// storage-format upgrade changing the cache profile of one engine family);
// other programs are returned unchanged. A skew that lands the cohort's
// counters on the saturating-exponential cluster makes the trained gate
// confidently hand growing-footprint programs to the saturating expert —
// whose calibration under-predicts them ever worse as inputs grow, the
// expensive direction for a memory-pressure-sensitive scheduler (heap
// thrash, OOM risk).
func skewedCohort(b *Benchmark, cohort memfunc.Family, skew float64) *Benchmark {
	if skew == 0 || b.Truth.Family != cohort {
		return b
	}
	drifted := *b
	drifted.CounterSkew = skew
	return &drifted
}

// GrowthArrivals generates a Poisson stream under gradual input growth: job
// i draws a log-uniform jitter around startGB and is scaled by
// growth^(i/(n-1)), so the stream starts at interactive sizes and ends
// growth times larger. As the working sets outgrow the caches, the
// Napierian-log cohort's counters drift linearly from their trained
// signature to skew (use ~-0.35 to land on the saturating cluster; 0
// disables behaviour drift), so late in the stream the gate faces both
// unseen sizes and shifted signatures. Benchmarks cycle through a seeded
// permutation of the catalogue; the same seed yields the identical stream.
func GrowthArrivals(n int, ratePerSec, startGB, growth, skew float64, rng *rand.Rand) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive stream length, got %d", n)
	}
	if ratePerSec <= 0 || math.IsInf(ratePerSec, 0) || math.IsNaN(ratePerSec) {
		return nil, fmt.Errorf("workload: invalid arrival rate %v jobs/sec", ratePerSec)
	}
	if !(startGB > 0) || !(growth >= 1) || math.IsInf(startGB, 0) || math.IsInf(growth, 0) {
		return nil, fmt.Errorf("workload: invalid growth drift start=%v growth=%v", startGB, growth)
	}
	if math.IsNaN(skew) || math.Abs(skew) > 1 {
		return nil, fmt.Errorf("workload: invalid counter skew %v", skew)
	}
	cat := Catalog()
	perm := rng.Perm(len(cat))
	times := make([]float64, n)
	jobs := make([]Job, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / ratePerSec
		times[i] = t
		progress := 0.0
		if n > 1 {
			progress = float64(i) / float64(n-1)
		}
		// Log-uniform jitter in [1/2, 2] keeps sizes varied without hiding
		// the trend.
		jitter := math.Pow(2, 2*rng.Float64()-1)
		jobs[i] = Job{
			Bench:   skewedCohort(cat[perm[i%len(cat)]], memfunc.NapierianLog, skew*progress),
			InputGB: startGB * jitter * math.Pow(growth, progress),
		}
	}
	return timeJobs(times, jobs), nil
}

// RegimeArrivals generates a Poisson stream that switches between workload
// mixes every periodJobs arrivals: even regimes draw the clean catalogue,
// odd regimes draw exclusively from the post-upgrade drift cohort — the
// log-family programs running with their counters skewed onto the
// saturating cluster (see skewedCohort), the way a migration wave or a
// tenant's nightly graph/ML pipeline takes over the queue. Each switch
// abruptly moves the arrival stream into or out of the region where the
// trained gate picks the wrong (under-predicting) expert — the
// regime-switch drift scenario. Input sizes are drawn from fixed scales
// capped well below the terabyte tier, so queueing differences come from
// prediction quality rather than giant stragglers.
func RegimeArrivals(n int, ratePerSec float64, periodJobs int, skew float64, rng *rand.Rand) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive stream length, got %d", n)
	}
	if ratePerSec <= 0 || math.IsInf(ratePerSec, 0) || math.IsNaN(ratePerSec) {
		return nil, fmt.Errorf("workload: invalid arrival rate %v jobs/sec", ratePerSec)
	}
	if periodJobs <= 0 {
		return nil, fmt.Errorf("workload: need a positive regime period, got %d jobs", periodJobs)
	}
	if math.IsNaN(skew) || math.Abs(skew) > 1 {
		return nil, fmt.Errorf("workload: invalid counter skew %v", skew)
	}
	cat := Catalog()
	perm := rng.Perm(len(cat))
	var cohort []*Benchmark
	for _, b := range cat {
		if c := skewedCohort(b, memfunc.NapierianLog, skew); c != b {
			cohort = append(cohort, c)
		}
	}
	if len(cohort) == 0 && skew != 0 {
		return nil, fmt.Errorf("workload: catalogue has no drift-cohort benchmarks")
	}
	sizes := []float64{10, 30, 90}
	times := make([]float64, n)
	jobs := make([]Job, n)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / ratePerSec
		times[i] = t
		b := cat[perm[i%len(cat)]]
		if skew != 0 && (i/periodJobs)%2 == 1 {
			b = cohort[rng.Intn(len(cohort))]
		}
		jobs[i] = Job{Bench: b, InputGB: sizes[rng.Intn(len(sizes))]}
	}
	return timeJobs(times, jobs), nil
}
