package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
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
	specs  func(seed int64) ([]cluster.NodeSpec, error)
	events func(seed int64) ([]cluster.NodeEvent, error)
}

// env is the fleet's fresh-cluster description for the stream subs of a
// unit seeded seed.
func (f heteroFleet) env(cfg cluster.Config, seed int64, subs []cluster.Submission) (env, error) {
	specs, err := f.specs(seed + 77)
	if err != nil {
		return env{}, err
	}
	e := env{cfg: cfg, specs: specs, subs: subs}
	if f.events != nil {
		e.events, err = f.events(seed + 177)
	}
	return e, err
}

func heteroFleets() []heteroFleet {
	uniform := func(int64) ([]cluster.NodeSpec, error) {
		fleet, err := workload.UniformFleet(40, workload.PaperNode())
		if err != nil {
			return nil, err
		}
		return cluster.SpecsFrom(fleet), nil
	}
	return []heteroFleet{
		{name: "uniform", specs: uniform},
		{name: "bimodal", specs: func(seed int64) ([]cluster.NodeSpec, error) {
			fleet, err := workload.BimodalFleet(40, workload.BigNode(), workload.LittleNode(), 0.5,
				rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return cluster.SpecsFrom(fleet), nil
		}},
		{name: "stragglers", specs: func(seed int64) ([]cluster.NodeSpec, error) {
			fleet, err := workload.StragglerFleet(40, workload.PaperNode(), 0.25, 0.4,
				rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return cluster.SpecsFrom(fleet), nil
		}},
		{name: "storm", specs: uniform, events: func(seed int64) ([]cluster.NodeEvent, error) {
			// Mid-run churn: 4 rolling drains and 3 hard failures inside
			// [400s, 1300s), each backfilled by a default-spec join 120s
			// later.
			return cluster.StormEvents(40, 4, 3, 400, 900, 120, rand.New(rand.NewSource(seed)))
		}},
	}
}

// Hetero runs the heterogeneous-fleet comparison: for each fleet scenario,
// several independent Poisson streams are replayed through the event engine
// under each scheme, and throughput, sojourn tails and fleet-imbalance
// metrics are pooled across streams. The scheme set is the open-system one
// plus a speed-aware-placement MoE variant, which shows what the Placer
// interface buys on non-uniform hardware.
func Hetero(ctx Context) (HeteroResult, error) {
	ctx = ctx.withDefaults()
	set, err := openSystemSchemes(ctx, 301, 302)
	if err != nil {
		return HeteroResult{}, err
	}
	moe := set[len(set)-1] // the open-system set ends with MoE
	set = append(set, moe.variant("MoE-speed", sched.NewSpeedAware()))
	fleets := heteroFleets()
	streams := max(ctx.MixesPerScenario/8, 1)
	cfg := ctx.Cfg
	cfg.TraceInterval = heteroTraceInterval
	cells, err := runGrid(ctx, grid{
		points: len(fleets), streams: streams, cells: len(set),
		seed: func(fi, si int) int64 { return ctx.Seed*3_000_017 + int64(fi)*8009 + int64(si) },
		draw: func(fi int, seed int64) (env, error) {
			arrivals, err := workload.PoissonArrivals(heteroApps, heteroRate/3600, rand.New(rand.NewSource(seed)))
			if err != nil {
				return env{}, err
			}
			return fleets[fi].env(cfg, seed, cluster.Submissions(arrivals))
		},
	}, func(fi, ni int, e env, seed int64) (HeteroSchemeResult, error) {
		_, res, err := e.replay(set[ni].salted(seed))
		if err != nil {
			return HeteroSchemeResult{}, fmt.Errorf("experiments: hetero fleet %s under %s: %w",
				fleets[fi].name, set[ni].name, err)
		}
		q, err := metrics.Queueing(res, 0)
		if err != nil {
			return HeteroSchemeResult{}, err
		}
		im, err := metrics.UtilizationImbalance(res.Trace)
		return HeteroSchemeResult{
			Scheme: set[ni].name, ThroughputJobsPerHour: q.ThroughputJobsPerHour, MeanSojournSec: q.MeanSojournSec,
			P95SojournSec: q.P95SojournSec, UtilizationCV: im.MeanCV, OOMKills: res.OOMKills, FailKills: res.FailKills,
		}, err
	})
	if err != nil {
		return HeteroResult{}, err
	}
	out := HeteroResult{AppsPerStream: heteroApps, Streams: streams, RatePerHour: heteroRate}
	for fi, fleet := range fleets {
		out.Fleets = append(out.Fleets, HeteroFleetResult{Fleet: fleet.name, Nodes: 40, Schemes: pooled(cells[fi])})
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
