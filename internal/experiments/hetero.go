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

// heteroRate is the offered load of the heterogeneous-fleet study (jobs/hour):
// high enough that placement quality matters, low enough that every scheme
// drains the queue on every fleet.
const heteroRate = 60.0

// heteroApps is the stream length per run.
const heteroApps = 30

// heteroTraceInterval samples per-node utilization for the imbalance metrics.
const heteroTraceInterval = 30.0

// HeteroResult is the heterogeneous-fleet study: the same open-system job
// stream replayed over fleet mixes the paper's uniform testbed cannot
// express — big/little machines, long-tail stragglers, and a drain/fail
// storm with autoscaler backfill — compared across co-location schemes on
// throughput, latency tails and fleet balance.
type HeteroResult struct {
	// AppsPerStream is the number of jobs per arrival stream.
	AppsPerStream int
	// Streams is how many independent streams were averaged per fleet.
	Streams int
	// RatePerHour is the configured Poisson arrival rate.
	RatePerHour float64
	// Fleets holds one entry per fleet scenario.
	Fleets []HeteroFleetResult
}

// HeteroFleetResult is one fleet scenario evaluated under every scheme.
type HeteroFleetResult struct {
	// Fleet names the scenario (uniform, bimodal, stragglers, storm).
	Fleet string
	// Nodes is the initial fleet size.
	Nodes int
	// Schemes holds per-scheme outcomes.
	Schemes []HeteroSchemeResult
}

// HeteroSchemeResult aggregates one scheme's behaviour on one fleet, averaged
// across the independent streams.
type HeteroSchemeResult struct {
	Scheme string
	// ThroughputJobsPerHour is the achieved completion rate.
	ThroughputJobsPerHour float64
	// MeanSojournSec and P95SojournSec are time-in-system statistics.
	MeanSojournSec float64
	P95SojournSec  float64
	// UtilizationCV is the mean coefficient of variation of per-node CPU
	// utilization (fleet imbalance; lower is better balanced).
	UtilizationCV float64
	// OOMKills and FailKills sum executor losses across streams.
	OOMKills  int
	FailKills int
}

// heteroFleet is one fleet scenario: initial specs plus optional lifecycle
// events, derived deterministically from a seed.
type heteroFleet struct {
	name   string
	specs  func(seed int64, cfg cluster.Config) ([]cluster.NodeSpec, error)
	events func(seed int64, cfg cluster.Config) ([]cluster.NodeEvent, error)
}

func heteroFleets() []heteroFleet {
	uniform := func(int64, cluster.Config) ([]cluster.NodeSpec, error) {
		fleet, err := workload.UniformFleet(40, workload.PaperNode())
		if err != nil {
			return nil, err
		}
		return cluster.SpecsFrom(fleet), nil
	}
	return []heteroFleet{
		{name: "uniform", specs: uniform},
		{name: "bimodal", specs: func(seed int64, _ cluster.Config) ([]cluster.NodeSpec, error) {
			fleet, err := workload.BimodalFleet(40, workload.BigNode(), workload.LittleNode(), 0.5,
				rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return cluster.SpecsFrom(fleet), nil
		}},
		{name: "stragglers", specs: func(seed int64, _ cluster.Config) ([]cluster.NodeSpec, error) {
			fleet, err := workload.StragglerFleet(40, workload.PaperNode(), 0.25, 0.4,
				rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return cluster.SpecsFrom(fleet), nil
		}},
		{name: "storm", specs: uniform, events: func(seed int64, _ cluster.Config) ([]cluster.NodeEvent, error) {
			// Mid-run churn: 4 rolling drains and 3 hard failures inside
			// [400s, 1300s), each backfilled by a default-spec join 120s
			// later.
			return cluster.StormEvents(40, 4, 3, 400, 900, 120, rand.New(rand.NewSource(seed)))
		}},
	}
}

// heteroSchemes is the open-system scheme set plus a speed-aware-placement
// MoE variant, which shows what the Placer interface buys on non-uniform
// hardware.
func heteroSchemes(ctx Context) (schemeSet, error) {
	moeModel, _, err := trainedMoE(ctx, nil, 301)
	if err != nil {
		return schemeSet{}, err
	}
	quasarModel, err := sched.TrainQuasar(workload.TrainingSet(), ctx.rng(302))
	if err != nil {
		return schemeSet{}, err
	}
	return schemeSet{
		names: []string{"Isolated", "Pairwise", "Quasar", "MoE", "MoE-speed"},
		factories: map[string]func(int64) cluster.Scheduler{
			"Isolated": func(int64) cluster.Scheduler { return sched.NewIsolated() },
			"Pairwise": func(int64) cluster.Scheduler { return sched.NewPairwise() },
			"Quasar": func(seed int64) cluster.Scheduler {
				return sched.NewQuasar(quasarModel, rand.New(rand.NewSource(seed)))
			},
			"MoE": func(seed int64) cluster.Scheduler {
				return sched.NewMoE(moeModel, rand.New(rand.NewSource(seed)))
			},
			"MoE-speed": func(seed int64) cluster.Scheduler {
				d := sched.NewMoE(moeModel, rand.New(rand.NewSource(seed)))
				d.PolicyName = "MoE-speed"
				d.Placer = sched.NewSpeedAware()
				return d
			},
		},
	}, nil
}

// Hetero runs the heterogeneous-fleet comparison: for each fleet scenario,
// several independent Poisson streams are replayed through the event engine
// under each scheme, and throughput, sojourn tails and fleet-imbalance
// metrics are averaged. (fleet, stream) units fan out over the concurrent
// runner with per-unit seeds.
func Hetero(ctx Context) (HeteroResult, error) {
	ctx = ctx.withDefaults()
	set, err := heteroSchemes(ctx)
	if err != nil {
		return HeteroResult{}, err
	}
	fleets := heteroFleets()
	streams := ctx.MixesPerScenario / 8
	if streams < 1 {
		streams = 1
	}
	cfg := ctx.Cfg
	cfg.TraceInterval = heteroTraceInterval

	type unit struct {
		qs   []metrics.QueueMetrics
		cv   []float64
		oom  []int
		fail []int
	}
	units := make([]unit, len(fleets)*streams)
	err = parallel.ForEachIndexed(ctx.workers(), len(units), func(item int) error {
		fi, si := item/streams, item%streams
		fleet := fleets[fi]
		streamSeed := ctx.Seed*3_000_017 + int64(fi)*8009 + int64(si)
		arrivals, err := workload.PoissonArrivals(heteroApps, heteroRate/3600,
			rand.New(rand.NewSource(streamSeed)))
		if err != nil {
			return err
		}
		subs := cluster.Submissions(arrivals)
		specs, err := fleet.specs(streamSeed+77, cfg)
		if err != nil {
			return err
		}
		u := unit{
			qs:   make([]metrics.QueueMetrics, len(set.names)),
			cv:   make([]float64, len(set.names)),
			oom:  make([]int, len(set.names)),
			fail: make([]int, len(set.names)),
		}
		for ni, name := range set.names {
			c, err := cluster.NewHetero(cfg, specs)
			if err != nil {
				return err
			}
			if fleet.events != nil {
				evs, err := fleet.events(streamSeed+177, cfg)
				if err != nil {
					return err
				}
				if err := c.ScheduleNodeEvents(evs...); err != nil {
					return err
				}
			}
			res, err := c.RunOpen(subs, set.factories[name](streamSeed+int64(len(name))))
			if err != nil {
				return fmt.Errorf("experiments: hetero fleet %s under %s: %w", fleet.name, name, err)
			}
			q, err := metrics.Queueing(res, 0)
			if err != nil {
				return err
			}
			im, err := metrics.UtilizationImbalance(res.Trace)
			if err != nil {
				return err
			}
			u.qs[ni] = q
			u.cv[ni] = im.MeanCV
			u.oom[ni] = res.OOMKills
			u.fail[ni] = res.FailKills
		}
		units[item] = u
		return nil
	})
	if err != nil {
		return HeteroResult{}, err
	}

	out := HeteroResult{AppsPerStream: heteroApps, Streams: streams, RatePerHour: heteroRate}
	for fi, fleet := range fleets {
		fr := HeteroFleetResult{Fleet: fleet.name, Nodes: 40}
		for ni, name := range set.names {
			var agg HeteroSchemeResult
			agg.Scheme = name
			for si := 0; si < streams; si++ {
				u := units[fi*streams+si]
				agg.ThroughputJobsPerHour += u.qs[ni].ThroughputJobsPerHour
				agg.MeanSojournSec += u.qs[ni].MeanSojournSec
				agg.P95SojournSec += u.qs[ni].P95SojournSec
				agg.UtilizationCV += u.cv[ni]
				agg.OOMKills += u.oom[ni]
				agg.FailKills += u.fail[ni]
			}
			n := float64(streams)
			agg.ThroughputJobsPerHour /= n
			agg.MeanSojournSec /= n
			agg.P95SojournSec /= n
			agg.UtilizationCV /= n
			fr.Schemes = append(fr.Schemes, agg)
		}
		out.Fleets = append(out.Fleets, fr)
	}
	return out, nil
}

// Tables renders the heterogeneous-fleet study: achieved throughput, p95
// sojourn and utilization imbalance per fleet scenario.
func (r HeteroResult) Tables() []Table {
	names := []string{}
	if len(r.Fleets) > 0 {
		for _, s := range r.Fleets[0].Schemes {
			names = append(names, s.Scheme)
		}
	}
	header := append([]string{"fleet"}, names...)
	thr := Table{
		Title:  "Heterogeneous fleets: achieved throughput (jobs/hour)",
		Header: header,
		Caption: fmt.Sprintf("Poisson arrivals at %.0f jobs/hour, %d-app streams, %d streams per fleet; storm = 4 drains + 3 fails with backfill joins.",
			r.RatePerHour, r.AppsPerStream, r.Streams),
	}
	p95 := Table{Title: "Heterogeneous fleets: p95 sojourn time (s)", Header: header}
	cv := Table{Title: "Heterogeneous fleets: utilization imbalance (mean CV)", Header: header}
	kills := Table{Title: "Heterogeneous fleets: executor losses (OOM + node-failure kills)", Header: header}
	for _, fr := range r.Fleets {
		tRow := []string{fr.Fleet}
		pRow := []string{fr.Fleet}
		cRow := []string{fr.Fleet}
		kRow := []string{fr.Fleet}
		for _, s := range fr.Schemes {
			tRow = append(tRow, f1(s.ThroughputJobsPerHour))
			pRow = append(pRow, f1(s.P95SojournSec))
			cRow = append(cRow, f3(s.UtilizationCV))
			kRow = append(kRow, fmt.Sprintf("%d+%d", s.OOMKills, s.FailKills))
		}
		thr.Rows = append(thr.Rows, tRow)
		p95.Rows = append(p95.Rows, pRow)
		cv.Rows = append(cv.Rows, cRow)
		kills.Rows = append(kills.Rows, kRow)
	}
	return []Table{thr, p95, cv, kills}
}
