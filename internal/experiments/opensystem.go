package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
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

// openSystemSchemes is the open-stream comparison: the isolated and
// pairwise baselines, and Quasar and MoE trained from the context's rng at
// the given offsets.
func openSystemSchemes(ctx Context, moeOffset, quasarOffset int64) (schemeSet, error) {
	moeModel, _, err := trainedMoE(ctx, nil, moeOffset)
	if err != nil {
		return nil, err
	}
	quasarModel, err := sched.TrainQuasar(workload.TrainingSet(), ctx.rng(quasarOffset))
	if err != nil {
		return nil, err
	}
	return schemeSet{
		{"Isolated", func(int64) *sched.Dispatcher { return sched.NewIsolated() }},
		{"Pairwise", func(int64) *sched.Dispatcher { return sched.NewPairwise() }},
		{"Quasar", func(seed int64) *sched.Dispatcher {
			return sched.NewQuasar(quasarModel, rand.New(rand.NewSource(seed)))
		}},
		moeScheme(moeModel),
	}, nil
}

// OpenSystem runs the open-system comparison: for each arrival rate, several
// independent Poisson streams are replayed through the event engine under
// each scheme, and the queueing metrics are pooled across streams.
func OpenSystem(ctx Context) (OpenSystemResult, error) {
	ctx = ctx.withDefaults()
	set, err := openSystemSchemes(ctx, 201, 202)
	if err != nil {
		return OpenSystemResult{}, err
	}
	streams := max(ctx.MixesPerScenario/4, 1)
	cells, err := runGrid(ctx, grid{
		points: len(openSystemRates), streams: streams, cells: len(set),
		seed: func(ri, si int) int64 { return ctx.Seed*2_000_003 + int64(ri)*4013 + int64(si) },
		draw: func(ri int, seed int64) (env, error) {
			arrivals, err := workload.PoissonArrivals(openSystemApps, openSystemRates[ri]/3600,
				rand.New(rand.NewSource(seed)))
			return env{cfg: ctx.Cfg, subs: cluster.Submissions(arrivals)}, err
		},
	}, func(ri, ni int, e env, seed int64) (OpenSchemeResult, error) {
		_, res, err := e.replay(set[ni].salted(seed))
		if err != nil {
			return OpenSchemeResult{}, fmt.Errorf("experiments: open system %.0f jobs/h under %s: %w",
				openSystemRates[ri], set[ni].name, err)
		}
		q, err := metrics.Queueing(res, 0)
		return OpenSchemeResult{
			Scheme: set[ni].name, MeanWaitSec: q.MeanWaitSec, MeanSojournSec: q.MeanSojournSec,
			P95SojournSec: q.P95SojournSec, ThroughputJobsPerHour: q.ThroughputJobsPerHour, OOMKills: res.OOMKills,
		}, err
	})
	if err != nil {
		return OpenSystemResult{}, err
	}
	out := OpenSystemResult{AppsPerStream: openSystemApps, Streams: streams}
	for ri, rate := range openSystemRates {
		out.Rates = append(out.Rates, OpenRatePoint{JobsPerHour: rate, Schemes: pooled(cells[ri])})
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
