package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/moe"
	"moespark/internal/parallel"
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
// (DriftSkew) as working sets outgrow the caches. Exported so the
// moeschedsim -drift flag replays exactly the study's workloads.
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

// driftSchemes builds the comparison set: the same trained model behind the
// static and the adaptive prediction pipeline, plus the ground-truth Oracle
// as the no-prediction-error reference.
func driftSchemes(ctx Context) (schemeSet, error) {
	moeModel, _, err := trainedMoE(ctx, nil, 401)
	if err != nil {
		return schemeSet{}, err
	}
	return schemeSet{
		names: []string{"MoE-static", "MoE-adaptive", "Oracle"},
		factories: map[string]func(int64) cluster.Scheduler{
			"MoE-static": func(seed int64) cluster.Scheduler {
				d := sched.NewMoE(moeModel, rand.New(rand.NewSource(seed)))
				d.PolicyName = "MoE-static"
				return d
			},
			"MoE-adaptive": func(seed int64) cluster.Scheduler {
				// A fresh Adaptive per run: its recalibration state is
				// per-stream, never shared across runs or schemes.
				return sched.NewAdaptiveMoE(moeModel, moe.AdaptiveConfig{}, rand.New(rand.NewSource(seed)))
			},
			"Oracle": func(int64) cluster.Scheduler { return sched.NewOracle() },
		},
	}, nil
}

// Drift runs the adaptation study: for each drift scenario and offered load,
// several independent streams are replayed through the event engine under
// the static and adaptive MoE pipelines (same trained model, same rng
// streams — the runs differ only through the feedback loop), and queueing
// metrics are averaged. (workload, rate, stream) units fan out over the
// concurrent runner with per-unit seeds; every scheduler is constructed
// inside its unit, so results are identical at any worker count.
func Drift(ctx Context) (DriftResult, error) {
	ctx = ctx.withDefaults()
	set, err := driftSchemes(ctx)
	if err != nil {
		return DriftResult{}, err
	}
	loads := driftWorkloads()
	streams := ctx.MixesPerScenario / 8
	if streams < 1 {
		streams = 1
	}
	type unit struct {
		qs  []metrics.QueueMetrics
		oom []int
	}
	units := make([]unit, len(loads)*len(driftRates)*streams)
	err = parallel.ForEachIndexed(ctx.workers(), len(units), func(item int) error {
		wi := item / (len(driftRates) * streams)
		ri := (item / streams) % len(driftRates)
		si := item % streams
		rate := driftRates[ri]
		streamSeed := ctx.Seed*5_000_011 + int64(wi)*16001 + int64(ri)*4057 + int64(si)
		arrivals, err := loads[wi].stream(rate, streamSeed)
		if err != nil {
			return err
		}
		subs := cluster.Submissions(arrivals)
		u := unit{qs: make([]metrics.QueueMetrics, len(set.names)), oom: make([]int, len(set.names))}
		for ni, name := range set.names {
			c := cluster.New(ctx.Cfg)
			// One scheduler seed for every scheme: the static and adaptive
			// arms draw identical profiling-noise streams, so they differ
			// only through the feedback loop.
			res, err := c.RunOpen(subs, set.factories[name](streamSeed+101))
			if err != nil {
				return fmt.Errorf("experiments: drift %s %.0f jobs/h under %s: %w", loads[wi].name, rate, name, err)
			}
			q, err := metrics.Queueing(res, 0)
			if err != nil {
				return err
			}
			u.qs[ni] = q
			u.oom[ni] = res.OOMKills
		}
		units[item] = u
		return nil
	})
	if err != nil {
		return DriftResult{}, err
	}

	out := DriftResult{AppsPerStream: driftApps, Streams: streams}
	for wi, load := range loads {
		wr := DriftWorkloadResult{Workload: load.name}
		for ri, rate := range driftRates {
			point := DriftRatePoint{JobsPerHour: rate}
			for ni, name := range set.names {
				var agg DriftSchemeResult
				agg.Scheme = name
				for si := 0; si < streams; si++ {
					u := units[(wi*len(driftRates)+ri)*streams+si]
					agg.MeanSojournSec += u.qs[ni].MeanSojournSec
					agg.P95SojournSec += u.qs[ni].P95SojournSec
					agg.P99SojournSec += u.qs[ni].P99SojournSec
					agg.ThroughputJobsPerHour += u.qs[ni].ThroughputJobsPerHour
					agg.OOMKills += u.oom[ni]
				}
				n := float64(streams)
				agg.MeanSojournSec /= n
				agg.P95SojournSec /= n
				agg.P99SojournSec /= n
				agg.ThroughputJobsPerHour /= n
				point.Schemes = append(point.Schemes, agg)
			}
			wr.Rates = append(wr.Rates, point)
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
