package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
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

// Tenants runs the multi-tenant priority study: for each heterogeneous fleet
// scenario, several independent classed Poisson streams are replayed under
// each scheme with and without preemption (each run lifts the scheme's
// dispatcher through sched.NewPriority), and per-class queueing metrics are
// pooled across streams.
func Tenants(ctx Context) (TenantsResult, error) {
	ctx = ctx.withDefaults()
	set, err := openSystemSchemes(ctx, 401, 402)
	if err != nil {
		return TenantsResult{}, err
	}
	fleets := heteroFleets()
	streams := max(ctx.MixesPerScenario/8, 1)
	// Cell 2*ni runs scheme ni with priority classes only, cell 2*ni+1 adds
	// preemption.
	cells, err := runGrid(ctx, grid{
		points: len(fleets), streams: streams, cells: 2 * len(set),
		seed: func(fi, si int) int64 { return ctx.Seed*5_000_011 + int64(fi)*9013 + int64(si) },
		draw: func(fi int, seed int64) (env, error) {
			rng := rand.New(rand.NewSource(seed))
			arrivals, err := workload.PoissonArrivals(tenantsApps, tenantsRate/3600, rng)
			if err != nil {
				return env{}, err
			}
			tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(tenantsLatencyFrac), rng)
			if err != nil {
				return env{}, err
			}
			return fleets[fi].env(ctx.Cfg, seed, cluster.Submissions(tagged))
		},
	}, func(fi, c int, e env, seed int64) (TenantsModeMetrics, error) {
		s, preempt := set[c/2], c%2 == 1
		_, res, err := e.replay(sched.NewPriority(s.salted(seed), preempt))
		if err != nil {
			return TenantsModeMetrics{}, fmt.Errorf("experiments: tenants fleet %s under %s (preempt=%v): %w",
				fleets[fi].name, s.name, preempt, err)
		}
		byClass, err := metrics.QueueingByClass(res, 0)
		if err != nil {
			return TenantsModeMetrics{}, err
		}
		q, err := metrics.Queueing(res, 0)
		m := TenantsModeMetrics{ThroughputJobsPerHour: q.ThroughputJobsPerHour, PreemptKills: res.PreemptKills}
		for _, cq := range byClass {
			switch cq.Class {
			case "latency":
				m.LatencyP99Sec, m.LatencyMeanWaitSec = cq.P99SojournSec, cq.MeanWaitSec
			case "batch":
				m.BatchP99Sec = cq.P99SojournSec
			}
		}
		return m, err
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
		for ni, s := range set {
			fr.Schemes = append(fr.Schemes, TenantsSchemeResult{
				Scheme: s.name, NoPreempt: pool(cells[fi][2*ni]), Preempt: pool(cells[fi][2*ni+1]),
			})
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
