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

// tenantsRate is the offered load of the multi-tenant study (jobs/hour):
// high enough that batch work regularly holds the memory a latency-sensitive
// arrival wants, so the preemption policy has something to decide.
const tenantsRate = 300.0

// tenantsApps is the stream length per run.
const tenantsApps = 60

// tenantsLatencyFrac is the latency-sensitive tenant's share of the stream.
const tenantsLatencyFrac = 0.3

// TenantsResult is the multi-tenant priority study: the same
// latency-vs-batch classed stream replayed over the heterogeneous fleet
// scenarios under every co-location scheme, each scheme run twice — with
// priority classes only, and with preemption on top — compared on per-class
// queueing metrics.
type TenantsResult struct {
	// AppsPerStream is the number of jobs per arrival stream.
	AppsPerStream int
	// Streams is how many independent streams were averaged per fleet.
	Streams int
	// RatePerHour is the configured Poisson arrival rate.
	RatePerHour float64
	// LatencyFrac is the latency-sensitive class's share of the stream.
	LatencyFrac float64
	// Fleets holds one entry per fleet scenario.
	Fleets []TenantsFleetResult
}

// TenantsFleetResult is one fleet scenario evaluated under every scheme.
type TenantsFleetResult struct {
	// Fleet names the scenario (uniform, bimodal, stragglers, storm).
	Fleet string
	// Schemes holds per-scheme outcomes.
	Schemes []TenantsSchemeResult
}

// TenantsSchemeResult is one scheme on one fleet, in both modes.
type TenantsSchemeResult struct {
	Scheme string
	// NoPreempt runs priority classes (weighted FCFS + class-aware
	// placement) without preemption; Preempt adds arrival-time preemption of
	// preemptible batch executors.
	NoPreempt TenantsModeMetrics
	Preempt   TenantsModeMetrics
}

// TenantsModeMetrics aggregates one (scheme, mode) cell, averaged across the
// independent streams.
type TenantsModeMetrics struct {
	// LatencyP99Sec and LatencyMeanWaitSec are the latency-sensitive class's
	// p99 sojourn and mean queue wait.
	LatencyP99Sec      float64
	LatencyMeanWaitSec float64
	// BatchP99Sec is the batch class's p99 sojourn (the price of priority).
	BatchP99Sec float64
	// ThroughputJobsPerHour is the whole stream's achieved completion rate.
	ThroughputJobsPerHour float64
	// PreemptKills sums preempted executors across streams (0 in NoPreempt
	// mode by construction).
	PreemptKills int
}

// tenantsSchemes returns the dispatcher factories of the study; dispatchers
// (not opaque schedulers) because each run lifts one through sched.NewPriority.
func tenantsSchemes(ctx Context) ([]string, map[string]func(int64) *sched.Dispatcher, error) {
	moeModel, _, err := trainedMoE(ctx, nil, 401)
	if err != nil {
		return nil, nil, err
	}
	quasarModel, err := sched.TrainQuasar(workload.TrainingSet(), ctx.rng(402))
	if err != nil {
		return nil, nil, err
	}
	names := []string{"Isolated", "Pairwise", "Quasar", "MoE"}
	factories := map[string]func(int64) *sched.Dispatcher{
		"Isolated": func(int64) *sched.Dispatcher { return sched.NewIsolated() },
		"Pairwise": func(int64) *sched.Dispatcher { return sched.NewPairwise() },
		"Quasar": func(seed int64) *sched.Dispatcher {
			return sched.NewQuasar(quasarModel, rand.New(rand.NewSource(seed)))
		},
		"MoE": func(seed int64) *sched.Dispatcher {
			return sched.NewMoE(moeModel, rand.New(rand.NewSource(seed)))
		},
	}
	return names, factories, nil
}

// Tenants runs the multi-tenant priority study: for each heterogeneous fleet
// scenario, several independent classed Poisson streams are replayed under
// each scheme with and without preemption, and per-class queueing metrics
// are averaged. (fleet, stream) units fan out over the concurrent runner
// with per-unit seeds, so results are identical at any worker count.
func Tenants(ctx Context) (TenantsResult, error) {
	ctx = ctx.withDefaults()
	names, factories, err := tenantsSchemes(ctx)
	if err != nil {
		return TenantsResult{}, err
	}
	fleets := heteroFleets()
	streams := ctx.MixesPerScenario / 8
	if streams < 1 {
		streams = 1
	}
	cfg := ctx.Cfg

	type cell struct {
		lat, batch metrics.ClassQueueMetrics
		throughput float64
		preempts   int
	}
	type unit struct {
		modes [2][]cell // [mode][scheme]
	}
	units := make([]unit, len(fleets)*streams)
	err = parallel.ForEachIndexed(ctx.workers(), len(units), func(item int) error {
		fi, si := item/streams, item%streams
		fleet := fleets[fi]
		streamSeed := ctx.Seed*5_000_011 + int64(fi)*9013 + int64(si)
		rng := rand.New(rand.NewSource(streamSeed))
		arrivals, err := workload.PoissonArrivals(tenantsApps, tenantsRate/3600, rng)
		if err != nil {
			return err
		}
		tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(tenantsLatencyFrac), rng)
		if err != nil {
			return err
		}
		subs := cluster.Submissions(tagged)
		specs, err := fleet.specs(streamSeed+77, cfg)
		if err != nil {
			return err
		}
		u := unit{}
		for mode := 0; mode < 2; mode++ {
			u.modes[mode] = make([]cell, len(names))
			for ni, name := range names {
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
				s := sched.NewPriority(factories[name](streamSeed+int64(len(name))), mode == 1)
				res, err := c.RunOpen(subs, s)
				if err != nil {
					return fmt.Errorf("experiments: tenants fleet %s under %s (preempt=%v): %w",
						fleet.name, name, mode == 1, err)
				}
				byClass, err := metrics.QueueingByClass(res, 0)
				if err != nil {
					return err
				}
				q, err := metrics.Queueing(res, 0)
				if err != nil {
					return err
				}
				cl := cell{throughput: q.ThroughputJobsPerHour, preempts: res.PreemptKills}
				for _, cq := range byClass {
					switch cq.Class {
					case "latency":
						cl.lat = cq
					case "batch":
						cl.batch = cq
					}
				}
				u.modes[mode][ni] = cl
			}
		}
		units[item] = u
		return nil
	})
	if err != nil {
		return TenantsResult{}, err
	}

	out := TenantsResult{
		AppsPerStream: tenantsApps, Streams: streams,
		RatePerHour: tenantsRate, LatencyFrac: tenantsLatencyFrac,
	}
	for fi, fleet := range fleets {
		fr := TenantsFleetResult{Fleet: fleet.name}
		for ni, name := range names {
			sr := TenantsSchemeResult{Scheme: name}
			for mode, agg := range []*TenantsModeMetrics{&sr.NoPreempt, &sr.Preempt} {
				for si := 0; si < streams; si++ {
					cl := units[fi*streams+si].modes[mode][ni]
					agg.LatencyP99Sec += cl.lat.P99SojournSec
					agg.LatencyMeanWaitSec += cl.lat.MeanWaitSec
					agg.BatchP99Sec += cl.batch.P99SojournSec
					agg.ThroughputJobsPerHour += cl.throughput
					agg.PreemptKills += cl.preempts
				}
				n := float64(streams)
				agg.LatencyP99Sec /= n
				agg.LatencyMeanWaitSec /= n
				agg.BatchP99Sec /= n
				agg.ThroughputJobsPerHour /= n
			}
			fr.Schemes = append(fr.Schemes, sr)
		}
		out.Fleets = append(out.Fleets, fr)
	}
	return out, nil
}

// Tables renders the multi-tenant study: the latency class's p99 sojourn and
// mean wait (no-preempt → preempt), the batch class's p99 (the price), and
// the preemption volume.
func (r TenantsResult) Tables() []Table {
	names := []string{}
	if len(r.Fleets) > 0 {
		for _, s := range r.Fleets[0].Schemes {
			names = append(names, s.Scheme)
		}
	}
	header := append([]string{"fleet"}, names...)
	arrow := func(a, b float64) string { return fmt.Sprintf("%.0f -> %.0f", a, b) }
	latP99 := Table{
		Title:  "Multi-tenant: latency-class p99 sojourn (s), priority -> priority+preempt",
		Header: header,
		Caption: fmt.Sprintf("Poisson arrivals at %.0f jobs/hour, %d-app streams (%d%% latency-sensitive), %d streams per fleet.",
			r.RatePerHour, r.AppsPerStream, int(r.LatencyFrac*100), r.Streams),
	}
	latWait := Table{Title: "Multi-tenant: latency-class mean wait (s), priority -> priority+preempt", Header: header}
	batchP99 := Table{Title: "Multi-tenant: batch-class p99 sojourn (s), priority -> priority+preempt", Header: header}
	kills := Table{Title: "Multi-tenant: preempted executors (sum across streams)", Header: header}
	for _, fr := range r.Fleets {
		p99Row := []string{fr.Fleet}
		waitRow := []string{fr.Fleet}
		batchRow := []string{fr.Fleet}
		killRow := []string{fr.Fleet}
		for _, s := range fr.Schemes {
			p99Row = append(p99Row, arrow(s.NoPreempt.LatencyP99Sec, s.Preempt.LatencyP99Sec))
			waitRow = append(waitRow, arrow(s.NoPreempt.LatencyMeanWaitSec, s.Preempt.LatencyMeanWaitSec))
			batchRow = append(batchRow, arrow(s.NoPreempt.BatchP99Sec, s.Preempt.BatchP99Sec))
			killRow = append(killRow, fmt.Sprintf("%d", s.Preempt.PreemptKills))
		}
		latP99.Rows = append(latP99.Rows, p99Row)
		latWait.Rows = append(latWait.Rows, waitRow)
		batchP99.Rows = append(batchP99.Rows, batchRow)
		kills.Rows = append(kills.Rows, killRow)
	}
	return []Table{latP99, latWait, batchP99, kills}
}
