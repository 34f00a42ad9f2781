package experiments

import (
	"fmt"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// faultsRate is the offered load of the failure-domain study (jobs/hour):
// high enough that the storm lands on a busy fleet, low enough that every
// scheme/mode combination still drains its queue.
const faultsRate = 60.0

// faultsApps is the stream length per run.
const faultsApps = 30

// Topology and storm shape: a 40-node fleet in 8 racks across 2 zones; each
// storm drains one full rack and hard-fails two more with a warning drain
// faultsWarnSec ahead of each failure — the evacuation window graceful
// migration exploits. Every rack rejoins faultsRejoinSec after it goes away.
const (
	faultsNodes      = 40
	faultsRacks      = 8
	faultsZones      = 2
	faultsDrainRacks = 1
	faultsFailRacks  = 2
	faultsStormStart = 400.0
	faultsStormSpan  = 600.0
	faultsWarnSec    = 60.0
	faultsRejoinSec  = 180.0
)

// faultsWindowEnd is the end of the degradation-metrics window: the last
// instant a storm departure (drain or delayed failure) can land.
const faultsWindowEnd = faultsStormStart + faultsStormSpan + faultsWarnSec

// FaultsResult is the failure-domain resilience study: the same rack-level
// storm (one rack drained, two racks failed with warning) replayed under
// each co-location scheme with the resilience machinery switched off and on,
// compared on lost work, latency tails and recovery.
type FaultsResult struct {
	// AppsPerStream is the number of jobs per arrival stream.
	AppsPerStream int
	// Streams is how many independent streams were averaged.
	Streams int
	// RatePerHour is the configured Poisson arrival rate.
	RatePerHour float64
	// Nodes and Racks describe the fleet topology.
	Nodes int
	Racks int
	// WindowStartSec and WindowEndSec bound the fault window the degradation
	// metrics are computed against.
	WindowStartSec float64
	WindowEndSec   float64
	// Schemes holds one entry per scheduling scheme.
	Schemes []FaultsSchemeResult
}

// FaultsSchemeResult is one scheme evaluated under every resilience mode.
type FaultsSchemeResult struct {
	Scheme string
	Modes  []FaultsModeResult
}

// FaultsModeResult aggregates one (scheme, mode) cell across the independent
// streams; counters are summed, everything else averaged.
type FaultsModeResult struct {
	// Mode names the resilience configuration (no-migration, migration,
	// migration+retry).
	Mode string
	// LostWorkGB is the reprocessing work charged back per stream (mean).
	LostWorkGB float64
	// GoodputFrac is useful work over total work processed (mean).
	GoodputFrac float64
	// MeanSojournSec and P99SojournSec are time-in-system statistics (mean).
	MeanSojournSec float64
	P99SojournSec  float64
	// RecoverySec is the post-window backlog drain time (mean).
	RecoverySec float64
	// ThroughputJobsPerHour is the achieved completion rate (mean).
	ThroughputJobsPerHour float64
	// Migrations, OOMRetries and FailKills sum the resilience counters
	// across streams.
	Migrations int
	OOMRetries int
	FailKills  int
}

// faultsMode is one resilience configuration applied on top of the platform
// config; the base (no-migration) mode is the historical behaviour: drains
// wait for work to finish, failures kill and charge back, OOM blacklists are
// permanent.
type faultsMode struct {
	name  string
	apply func(cluster.Config) cluster.Config
}

func faultsModes() []faultsMode {
	return []faultsMode{
		{name: "no-migration", apply: func(cfg cluster.Config) cluster.Config {
			return cfg
		}},
		{name: "migration", apply: func(cfg cluster.Config) cluster.Config {
			cfg.MigrateOnDrain = true
			return cfg
		}},
		{name: "migration+retry", apply: func(cfg cluster.Config) cluster.Config {
			cfg.MigrateOnDrain = true
			cfg.OOMRetryBudget = 2
			return cfg
		}},
	}
}

// faultsSpecs builds the racked fleet: uniform paper nodes labelled into
// faultsRacks racks across faultsZones zones.
func faultsSpecs() ([]cluster.NodeSpec, error) {
	fleet, err := workload.UniformFleet(faultsNodes, workload.PaperNode())
	if err != nil {
		return nil, err
	}
	racked, err := workload.AssignRacks(fleet, faultsRacks, faultsZones)
	if err != nil {
		return nil, err
	}
	return cluster.SpecsFrom(racked), nil
}

// Faults runs the failure-domain resilience study: for each independent
// Poisson stream, the same rack storm is replayed under every scheme and
// resilience mode, and lost work, sojourn tails, goodput and recovery are
// pooled across streams. The schemes are the paper's MoE dispatcher and its
// failure-domain-aware variant (rack-spread placement), which isolates what
// topology-aware placement buys on top of migration and retries.
func Faults(ctx Context) (FaultsResult, error) {
	ctx = ctx.withDefaults()
	moeModel, _, err := trainedMoE(ctx, nil, 401)
	if err != nil {
		return FaultsResult{}, err
	}
	moe := moeScheme(moeModel)
	set := schemeSet{moe, moe.variant("MoE-spread", sched.NewRackSpread())}
	modes := faultsModes()
	// Fleet caps ratchet with freed capacity in every mode: a storm-window
	// admission otherwise keeps a one-executor cap for life, and that
	// straggler — not fault handling — would dominate the sojourn tail.
	cfg := ctx.Cfg
	cfg.RefreshFleetSizing = true
	streams := max(ctx.MixesPerScenario/8, 1)
	// Cell ni*len(modes)+mi runs scheme ni in mode mi.
	cells, err := runGrid(ctx, grid{
		points: 1, streams: streams, cells: len(set) * len(modes),
		seed: func(_, si int) int64 { return ctx.Seed*3_000_017 + int64(si)*8009 },
		draw: func(_ int, seed int64) (env, error) {
			arrivals, err := workload.PoissonArrivals(faultsApps, faultsRate/3600, rand.New(rand.NewSource(seed)))
			if err != nil {
				return env{}, err
			}
			specs, err := faultsSpecs()
			if err != nil {
				return env{}, err
			}
			// Every (scheme, mode) cell of the stream replays this storm.
			evs, err := cluster.RackStormEvents(specs, faultsDrainRacks, faultsFailRacks,
				faultsStormStart, faultsStormSpan, faultsWarnSec, faultsRejoinSec,
				rand.New(rand.NewSource(seed+997)))
			return env{specs: specs, events: evs, subs: cluster.Submissions(arrivals)}, err
		},
	}, func(_, c int, e env, seed int64) (FaultsModeResult, error) {
		s, mode := set[c/len(modes)], modes[c%len(modes)]
		e.cfg = mode.apply(cfg)
		_, res, err := e.replay(s.salted(seed))
		if err != nil {
			return FaultsModeResult{}, fmt.Errorf("experiments: faults %s/%s: %w", s.name, mode.name, err)
		}
		q, err := metrics.Queueing(res, 0)
		if err != nil {
			return FaultsModeResult{}, err
		}
		fi, err := metrics.Faults(res, faultsStormStart, faultsWindowEnd)
		return FaultsModeResult{
			Mode: mode.name, LostWorkGB: fi.LostWorkGB, GoodputFrac: fi.GoodputFrac,
			MeanSojournSec: q.MeanSojournSec, P99SojournSec: q.P99SojournSec, RecoverySec: fi.RecoverySec,
			ThroughputJobsPerHour: q.ThroughputJobsPerHour, Migrations: fi.Migrations,
			OOMRetries: fi.OOMRetries, FailKills: fi.FailKills,
		}, err
	})
	if err != nil {
		return FaultsResult{}, err
	}
	out := FaultsResult{
		AppsPerStream:  faultsApps,
		Streams:        streams,
		RatePerHour:    faultsRate,
		Nodes:          faultsNodes,
		Racks:          faultsRacks,
		WindowStartSec: faultsStormStart,
		WindowEndSec:   faultsWindowEnd,
	}
	for ni, s := range set {
		modeCells := cells[0][ni*len(modes) : (ni+1)*len(modes)]
		out.Schemes = append(out.Schemes, FaultsSchemeResult{Scheme: s.name, Modes: pooled(modeCells)})
	}
	return out, nil
}

// Tables renders the failure-domain study: lost work and goodput, sojourn
// tails and recovery, and the resilience counters, one row per
// (scheme, mode) cell.
func (r FaultsResult) Tables() []Table {
	caption := fmt.Sprintf(
		"%d nodes in %d racks; storm drains %d rack and fails %d racks (%.0fs warning) in [%.0fs, %.0fs); %d-app streams at %.0f jobs/hour, %d streams.",
		r.Nodes, r.Racks, faultsDrainRacks, faultsFailRacks, faultsWarnSec,
		r.WindowStartSec, r.WindowStartSec+faultsStormSpan, r.AppsPerStream, r.RatePerHour, r.Streams)
	loss := Table{
		Title:   "Rack storms: lost work and goodput",
		Header:  []string{"scheme", "mode", "lost GB", "goodput", "fail kills"},
		Caption: caption,
	}
	lat := Table{
		Title:  "Rack storms: latency and recovery",
		Header: []string{"scheme", "mode", "mean sojourn (s)", "p99 sojourn (s)", "recovery (s)", "jobs/hour"},
	}
	counters := Table{
		Title:  "Rack storms: resilience counters (summed across streams)",
		Header: []string{"scheme", "mode", "migrations", "OOM retries"},
	}
	for _, sr := range r.Schemes {
		for _, m := range sr.Modes {
			loss.Rows = append(loss.Rows, []string{
				sr.Scheme, m.Mode, f1(m.LostWorkGB), f3(m.GoodputFrac), fmt.Sprintf("%d", m.FailKills)})
			lat.Rows = append(lat.Rows, []string{
				sr.Scheme, m.Mode, f1(m.MeanSojournSec), f1(m.P99SojournSec), f1(m.RecoverySec), f1(m.ThroughputJobsPerHour)})
			counters.Rows = append(counters.Rows, []string{
				sr.Scheme, m.Mode, fmt.Sprintf("%d", m.Migrations), fmt.Sprintf("%d", m.OOMRetries)})
		}
	}
	return []Table{loss, lat, counters}
}
