package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/parallel"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// openSystemRates are the offered loads of the open-system study, in jobs
// per hour. The low end is comfortably inside every scheme's capacity; the
// high end exceeds what serial isolated execution can drain, so queueing
// differences between the co-location policies become visible.
var openSystemRates = []float64{20, 40, 80, 160}

// openSystemApps is the stream length per run.
const openSystemApps = 30

// OpenSystemResult is the open-system scheduling study: Poisson job arrivals
// at rising rates, compared across co-location schemes on queueing metrics
// rather than closed-batch STP.
type OpenSystemResult struct {
	// AppsPerStream is the number of jobs per arrival stream.
	AppsPerStream int
	// Streams is how many independent streams were averaged per rate.
	Streams int
	// Rates holds one point per offered load.
	Rates []OpenRatePoint
}

// OpenRatePoint is one offered load evaluated under every scheme.
type OpenRatePoint struct {
	// JobsPerHour is the configured Poisson arrival rate.
	JobsPerHour float64
	// Schemes holds per-scheme queueing outcomes, in openSystemSchemes order.
	Schemes []OpenSchemeResult
}

// OpenSchemeResult aggregates one scheme's queueing behaviour at one rate,
// averaged across the independent streams.
type OpenSchemeResult struct {
	Scheme string
	// MeanWaitSec is the average time from submission to execution start.
	MeanWaitSec float64
	// MeanSojournSec is the average time in system.
	MeanSojournSec float64
	// P95SojournSec is the mean (across streams) of the per-stream p95
	// sojourn time.
	P95SojournSec float64
	// ThroughputJobsPerHour is the achieved completion rate.
	ThroughputJobsPerHour float64
	// OOMKills sums executor OOM kills across streams.
	OOMKills int
}

func openSystemSchemes(ctx Context) (schemeSet, error) {
	moeModel, _, err := trainedMoE(ctx, nil, 201)
	if err != nil {
		return schemeSet{}, err
	}
	quasarModel, err := sched.TrainQuasar(workload.TrainingSet(), ctx.rng(202))
	if err != nil {
		return schemeSet{}, err
	}
	return schemeSet{
		names: []string{"Isolated", "Pairwise", "Quasar", "MoE"},
		factories: map[string]func(int64) cluster.Scheduler{
			"Isolated": func(int64) cluster.Scheduler { return sched.NewIsolated() },
			"Pairwise": func(int64) cluster.Scheduler { return sched.NewPairwise() },
			"Quasar": func(seed int64) cluster.Scheduler {
				return sched.NewQuasar(quasarModel, rand.New(rand.NewSource(seed)))
			},
			"MoE": func(seed int64) cluster.Scheduler {
				return sched.NewMoE(moeModel, rand.New(rand.NewSource(seed)))
			},
		},
	}, nil
}

// OpenSystem runs the open-system comparison: for each arrival rate, several
// independent Poisson streams are replayed through the event engine under
// each scheme, and the queueing metrics are averaged. (rate, stream) units
// fan out over the concurrent runner with per-unit seeds.
func OpenSystem(ctx Context) (OpenSystemResult, error) {
	ctx = ctx.withDefaults()
	set, err := openSystemSchemes(ctx)
	if err != nil {
		return OpenSystemResult{}, err
	}
	streams := ctx.MixesPerScenario / 4
	if streams < 1 {
		streams = 1
	}
	type unit struct {
		qs  []metrics.QueueMetrics // per scheme
		oom []int
	}
	units := make([]unit, len(openSystemRates)*streams)
	err = parallel.ForEachIndexed(ctx.workers(), len(units), func(item int) error {
		ri, si := item/streams, item%streams
		rate := openSystemRates[ri]
		streamSeed := ctx.Seed*2_000_003 + int64(ri)*4013 + int64(si)
		arrivals, err := workload.PoissonArrivals(openSystemApps, rate/3600, rand.New(rand.NewSource(streamSeed)))
		if err != nil {
			return err
		}
		subs := cluster.Submissions(arrivals)
		u := unit{qs: make([]metrics.QueueMetrics, len(set.names)), oom: make([]int, len(set.names))}
		for ni, name := range set.names {
			c := cluster.New(ctx.Cfg)
			res, err := c.RunOpen(subs, set.factories[name](streamSeed+int64(len(name))))
			if err != nil {
				return fmt.Errorf("experiments: open system %.0f jobs/h under %s: %w", rate, name, err)
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
		return OpenSystemResult{}, err
	}

	out := OpenSystemResult{AppsPerStream: openSystemApps, Streams: streams}
	for ri, rate := range openSystemRates {
		point := OpenRatePoint{JobsPerHour: rate}
		for ni, name := range set.names {
			var agg OpenSchemeResult
			agg.Scheme = name
			for si := 0; si < streams; si++ {
				u := units[ri*streams+si]
				agg.MeanWaitSec += u.qs[ni].MeanWaitSec
				agg.MeanSojournSec += u.qs[ni].MeanSojournSec
				agg.P95SojournSec += u.qs[ni].P95SojournSec
				agg.ThroughputJobsPerHour += u.qs[ni].ThroughputJobsPerHour
				agg.OOMKills += u.oom[ni]
			}
			n := float64(streams)
			agg.MeanWaitSec /= n
			agg.MeanSojournSec /= n
			agg.P95SojournSec /= n
			agg.ThroughputJobsPerHour /= n
			point.Schemes = append(point.Schemes, agg)
		}
		out.Rates = append(out.Rates, point)
	}
	return out, nil
}

// Tables renders the open-system study: mean wait, p95 sojourn and achieved
// throughput per offered load.
func (r OpenSystemResult) Tables() []Table {
	names := []string{}
	if len(r.Rates) > 0 {
		for _, s := range r.Rates[0].Schemes {
			names = append(names, s.Scheme)
		}
	}
	header := append([]string{"jobs/hour"}, names...)
	wait := Table{
		Title:   "Open system: mean queue wait (s) vs offered load",
		Header:  header,
		Caption: fmt.Sprintf("Poisson arrivals, %d-app streams, %d streams per rate.", r.AppsPerStream, r.Streams),
	}
	p95 := Table{Title: "Open system: p95 sojourn time (s) vs offered load", Header: header}
	thr := Table{Title: "Open system: achieved throughput (jobs/hour) vs offered load", Header: header}
	for _, pt := range r.Rates {
		wRow := []string{f1(pt.JobsPerHour)}
		pRow := []string{f1(pt.JobsPerHour)}
		tRow := []string{f1(pt.JobsPerHour)}
		for _, s := range pt.Schemes {
			wRow = append(wRow, f1(s.MeanWaitSec))
			pRow = append(pRow, f1(s.P95SojournSec))
			tRow = append(tRow, f1(s.ThroughputJobsPerHour))
		}
		wait.Rows = append(wait.Rows, wRow)
		p95.Rows = append(p95.Rows, pRow)
		thr.Rows = append(thr.Rows, tRow)
	}
	return []Table{wait, p95, thr}
}
