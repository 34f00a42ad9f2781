package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// driftRates are the offered loads of the adaptation study (jobs/hour). The
// low end leaves slack on every scheme; the high end queues hard enough
// that prediction quality shows up in the sojourn tail.
var driftRates = []float64{30, 60, 90}

// driftApps is the stream length per run: long enough that an adaptive
// predictor has observed outcomes to learn from well before the stream
// ends.
const driftApps = 60

// DriftGrowthStartGB / DriftGrowthFactor shape the gradual-input-growth
// scenario: jobs start around 2 GB (well inside the capped calibration
// volumes) and end ~50x larger, far beyond anything the profiling runs saw,
// while the drift cohort's counters shift toward the saturating cluster
// (DriftSkew) as working sets outgrow the caches. Exported so moeschedsim's
// drift-growth and drift-regimes arrivals replay exactly the study's
// workloads.
const (
	DriftGrowthStartGB = 2.0
	DriftGrowthFactor  = 50.0
)

// DriftSkew is how far each scenario's drift cohort's counters move from
// the log cluster onto the saturating-exponential cluster: far enough that
// the gate confidently selects the wrong (under-predicting) expert.
const DriftSkew = -0.35

// DriftRegimePeriod is the regime length (jobs) of the mix-switch scenario.
const DriftRegimePeriod = 10

// DriftResult is the adaptation study: non-stationary arrival streams
// (gradual input growth, regime switches between expert families) replayed
// at rising rates under the static predict-once MoE pipeline and the
// feedback-driven adaptive one, compared on sojourn tails.
type DriftResult struct {
	// AppsPerStream is the number of jobs per arrival stream.
	AppsPerStream int
	// Streams is how many independent streams were averaged per point.
	Streams int
	// Workloads holds one entry per drift scenario.
	Workloads []DriftWorkloadResult
}

// DriftWorkloadResult is one drift scenario across the offered loads.
type DriftWorkloadResult struct {
	// Workload names the scenario ("growth", "regimes").
	Workload string
	// Rates holds one point per offered load.
	Rates []DriftRatePoint
}

// DriftRatePoint is one offered load evaluated under every scheme.
type DriftRatePoint struct {
	JobsPerHour float64
	Schemes     []DriftSchemeResult
}

// DriftSchemeResult aggregates one scheme's queueing behaviour at one
// (workload, rate) point, averaged across the independent streams.
type DriftSchemeResult struct {
	Scheme string
	// MeanSojournSec / P95 / P99 are time-in-system statistics (per-stream
	// percentiles averaged across streams).
	MeanSojournSec float64
	P95SojournSec  float64
	P99SojournSec  float64
	// ThroughputJobsPerHour is the achieved completion rate.
	ThroughputJobsPerHour float64
	// OOMKills sums executor OOM kills across streams.
	OOMKills int
}

// driftWorkload is one drift scenario: a seeded arrival-stream generator.
type driftWorkload struct {
	name   string
	stream func(rate float64, seed int64) ([]workload.Arrival, error)
}

func driftWorkloads() []driftWorkload {
	return []driftWorkload{
		{
			name: "growth",
			stream: func(rate float64, seed int64) ([]workload.Arrival, error) {
				return workload.GrowthArrivals(driftApps, rate/3600,
					DriftGrowthStartGB, DriftGrowthFactor, DriftSkew, rand.New(rand.NewSource(seed)))
			},
		},
		{
			name: "regimes",
			stream: func(rate float64, seed int64) ([]workload.Arrival, error) {
				return workload.RegimeArrivals(driftApps, rate/3600,
					DriftRegimePeriod, DriftSkew, rand.New(rand.NewSource(seed)))
			},
		},
	}
}

// Drift runs the adaptation study: for each drift scenario and offered load,
// several independent streams are replayed through the event engine under
// the same trained model behind the static and the adaptive prediction
// pipeline, plus the ground-truth Oracle as the no-prediction-error
// reference, and queueing metrics are pooled across streams.
func Drift(ctx Context) (DriftResult, error) {
	ctx = ctx.withDefaults()
	moeModel, _, err := trainedMoE(ctx, nil, 401)
	if err != nil {
		return DriftResult{}, err
	}
	set := schemeSet{
		moeScheme(moeModel).variant("MoE-static", nil),
		{"MoE-adaptive", func(seed int64) *sched.Dispatcher {
			// A fresh Adaptive per run: its recalibration state is
			// per-stream, never shared across runs or schemes.
			return sched.NewAdaptiveMoE(moeModel, rand.New(rand.NewSource(seed)))
		}},
		{"Oracle", func(int64) *sched.Dispatcher { return sched.NewOracle() }},
	}
	loads := driftWorkloads()
	streams := max(ctx.MixesPerScenario/8, 1)
	// Point p is workload p/len(driftRates) at rate p%len(driftRates).
	point := func(p int) (driftWorkload, float64) {
		return loads[p/len(driftRates)], driftRates[p%len(driftRates)]
	}
	cells, err := runGrid(ctx, grid{
		points: len(loads) * len(driftRates), streams: streams, cells: len(set),
		seed: func(p, si int) int64 {
			return ctx.Seed*5_000_011 + int64(p/len(driftRates))*16001 + int64(p%len(driftRates))*4057 + int64(si)
		},
		draw: func(p int, seed int64) (env, error) {
			load, rate := point(p)
			arrivals, err := load.stream(rate, seed)
			return env{cfg: ctx.Cfg, subs: cluster.Submissions(arrivals)}, err
		},
	}, func(p, ni int, e env, seed int64) (DriftSchemeResult, error) {
		// One scheduler seed for every scheme: the static and adaptive arms
		// draw identical profiling-noise streams, so they differ only
		// through the feedback loop.
		_, res, err := e.replay(set[ni].build(seed + 101))
		if err != nil {
			load, rate := point(p)
			return DriftSchemeResult{}, fmt.Errorf("experiments: drift %s %.0f jobs/h under %s: %w",
				load.name, rate, set[ni].name, err)
		}
		q, err := metrics.Queueing(res, 0)
		return DriftSchemeResult{
			Scheme: set[ni].name, MeanSojournSec: q.MeanSojournSec, P95SojournSec: q.P95SojournSec,
			P99SojournSec: q.P99SojournSec, ThroughputJobsPerHour: q.ThroughputJobsPerHour, OOMKills: res.OOMKills,
		}, err
	})
	if err != nil {
		return DriftResult{}, err
	}
	out := DriftResult{AppsPerStream: driftApps, Streams: streams}
	for wi, load := range loads {
		wr := DriftWorkloadResult{Workload: load.name}
		for ri, rate := range driftRates {
			wr.Rates = append(wr.Rates, DriftRatePoint{JobsPerHour: rate, Schemes: pooled(cells[wi*len(driftRates)+ri])})
		}
		out.Workloads = append(out.Workloads, wr)
	}
	return out, nil
}

// Tables renders the adaptation study: p99 sojourn, mean sojourn and OOM
// kills per drift scenario and offered load.
func (r DriftResult) Tables() []Table {
	names := []string{}
	if len(r.Workloads) > 0 && len(r.Workloads[0].Rates) > 0 {
		for _, s := range r.Workloads[0].Rates[0].Schemes {
			names = append(names, s.Scheme)
		}
	}
	header := append([]string{"workload", "jobs/hour"}, names...)
	p99 := Table{
		Title:  "Drift: p99 sojourn time (s) vs offered load, static vs adaptive MoE",
		Header: header,
		Caption: fmt.Sprintf("Non-stationary streams, %d apps per stream, %d streams per point; growth: %.0fGB inputs growing %.0fx; regimes: expert family switches every %d jobs.",
			r.AppsPerStream, r.Streams, DriftGrowthStartGB, DriftGrowthFactor, DriftRegimePeriod),
	}
	mean := Table{Title: "Drift: mean sojourn time (s) vs offered load", Header: header}
	oom := Table{Title: "Drift: executor OOM kills (summed across streams)", Header: header}
	for _, wr := range r.Workloads {
		for _, pt := range wr.Rates {
			pRow := []string{wr.Workload, f1(pt.JobsPerHour)}
			mRow := []string{wr.Workload, f1(pt.JobsPerHour)}
			oRow := []string{wr.Workload, f1(pt.JobsPerHour)}
			for _, s := range pt.Schemes {
				pRow = append(pRow, f1(s.P99SojournSec))
				mRow = append(mRow, f1(s.MeanSojournSec))
				oRow = append(oRow, fmt.Sprintf("%d", s.OOMKills))
			}
			p99.Rows = append(p99.Rows, pRow)
			mean.Rows = append(mean.Rows, mRow)
			oom.Rows = append(oom.Rows, oRow)
		}
	}
	return []Table{p99, mean, oom}
}
