// Command moeschedsim runs one scheduling scenario on the simulated cluster
// under a chosen co-location policy and prints the paper's metrics.
//
// Usage:
//
//	moeschedsim -policy moe -scenario L8 -seed 7
//	moeschedsim -policy pairwise -table4
//	moeschedsim -policy oracle -scenario L10 -verbose
//
// Open-system mode replaces the batch mix with a stream of timed arrivals
// and additionally reports queueing metrics (wait, sojourn percentiles,
// windowed throughput):
//
//	moeschedsim -policy moe -arrivals poisson -rate 80 -apps 30
//	moeschedsim -policy pairwise -arrivals bursty -rate 120 -apps 50
//	moeschedsim -policy isolated -arrivals diurnal -rate 60 -period 3600
//
// Heterogeneous fleets and node lifecycle churn:
//
//	moeschedsim -policy moe -fleet bimodal -arrivals poisson -rate 60
//	moeschedsim -policy moe -fleet stragglers -placer speed
//	moeschedsim -policy moe -node-events drain@600:3,fail@900:7,join@1200
//
// Failure domains: -racks stamps the fleet with rack/zone topology,
// -rack-storm replays a seeded correlated storm over whole racks
// (drains:fails@start:span[:warn[:rejoin]]), -migrate evacuates draining
// nodes via checkpointed migration, and -retry-budget replaces the permanent
// per-node OOM blacklist with expiring cool-off entries. Resilience counters
// (migrations, OOM retries, lost work) appear in both text and -json output:
//
//	moeschedsim -policy moe -arrivals poisson -racks 8:2 -rack-storm 1:2@400:600:60:180 -migrate
//	moeschedsim -policy moe -arrivals poisson -racks 4 -rack-storm 0:1@300:300 -migrate -retry-budget 2
//
// Multi-tenant priority classes (open-system mode): tag the stream with
// tenant classes, schedule weighted FCFS with class-aware placement, and
// optionally let high-priority arrivals preempt preemptible executors:
//
//	moeschedsim -policy moe -arrivals poisson -rate 300 -classes latency-batch -preempt
//	moeschedsim -policy moe -arrivals poisson -classes "prod:4:0.2:cap30,ad-hoc:2:0.3,batch:1:0.5:preempt"
//
// Non-stationary workloads and the online prediction pipeline: -drift
// replays a drifting stream (gradual input growth with signature drift, or
// regime switches between clean and post-upgrade mixes) and -adapt switches
// the MoE scheme to the feedback-driven predictor that recalibrates from
// the engine's completion/OOM observations:
//
//	moeschedsim -policy moe -drift growth -rate 60 -apps 60
//	moeschedsim -policy moe -adapt -drift regimes -rate 90 -apps 60
//
// Profiling: -cpuprofile/-memprofile write pprof profiles of the whole run:
//
//	moeschedsim -policy moe -arrivals poisson -rate 80 -apps 10000 -cpuprofile cpu.pprof
//
// -json emits the scenario and queueing results as a single JSON object for
// machine consumption.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"moespark/internal/cluster"
	"moespark/internal/experiments"
	"moespark/internal/memfunc"
	"moespark/internal/metrics"
	"moespark/internal/moe"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

func buildPolicy(name, placer string, seed int64, adapt bool) (*sched.Dispatcher, error) {
	rng := rand.New(rand.NewSource(seed))
	if adapt && name != "moe" {
		return nil, fmt.Errorf("-adapt selects the feedback-driven MoE pipeline and needs -policy moe, got %q", name)
	}
	var d *sched.Dispatcher
	var err error
	switch name {
	case "isolated":
		d = sched.NewIsolated()
	case "pairwise":
		d = sched.NewPairwise()
	case "oracle":
		d = sched.NewOracle()
	case "online":
		d = sched.NewOnlineSearch(rng)
	case "moe":
		var model *moe.Model
		model, err = moe.TrainDefault(rand.New(rand.NewSource(seed + 1)))
		if err != nil {
			return nil, fmt.Errorf("training MoE model: %w", err)
		}
		if adapt {
			d = sched.NewAdaptiveMoE(model, moe.AdaptiveConfig{}, rng)
		} else {
			d = sched.NewMoE(model, rng)
		}
	case "quasar":
		var q *sched.QuasarModel
		q, err = sched.TrainQuasar(workload.TrainingSet(), rand.New(rand.NewSource(seed+2)))
		if err != nil {
			return nil, fmt.Errorf("training Quasar model: %w", err)
		}
		d = sched.NewQuasar(q, rng)
	case "unified-linear":
		d = sched.NewUnified(memfunc.LinearPower, rng)
	case "unified-exp":
		d = sched.NewUnified(memfunc.Exponential, rng)
	case "unified-log":
		d = sched.NewUnified(memfunc.NapierianLog, rng)
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
	switch placer {
	case "", "firstfit":
		// The default: first fit in node-scan order.
	case "bestfit":
		d.Placer = sched.NewBestFitMemory()
	case "speed":
		d.Placer = sched.NewSpeedAware()
	default:
		return nil, fmt.Errorf("unknown placer %q (firstfit|bestfit|speed)", placer)
	}
	return d, nil
}

// buildFleet resolves -fleet (and the -racks topology) into per-node specs;
// nil means the homogeneous default platform.
func buildFleet(kind string, nodes, racks, zones int, seed int64) ([]cluster.NodeSpec, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("need a positive -nodes, got %d", nodes)
	}
	rng := rand.New(rand.NewSource(seed + 3))
	var fleet []workload.NodeClass
	var err error
	switch kind {
	case "", "uniform":
		if racks == 0 {
			return nil, nil
		}
		fleet, err = workload.UniformFleet(nodes, workload.PaperNode())
	case "bimodal":
		fleet, err = workload.BimodalFleet(nodes, workload.BigNode(), workload.LittleNode(), 0.5, rng)
	case "stragglers":
		fleet, err = workload.StragglerFleet(nodes, workload.PaperNode(), 0.25, 0.4, rng)
	default:
		return nil, fmt.Errorf("unknown fleet %q (uniform|bimodal|stragglers)", kind)
	}
	if err != nil {
		return nil, err
	}
	if racks > 0 {
		if fleet, err = workload.AssignRacks(fleet, racks, zones); err != nil {
			return nil, err
		}
	}
	return cluster.SpecsFrom(fleet), nil
}

// parseRacks parses the -racks syntax "racks[:zones]"; zones defaults to 1.
// Empty means no topology.
func parseRacks(s string) (racks, zones int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	rackStr, zoneStr, hasZones := strings.Cut(s, ":")
	if racks, err = strconv.Atoi(rackStr); err != nil || racks <= 0 {
		return 0, 0, fmt.Errorf("-racks %q: want racks[:zones] with a positive rack count", s)
	}
	zones = 1
	if hasZones {
		if zones, err = strconv.Atoi(zoneStr); err != nil || zones <= 0 {
			return 0, 0, fmt.Errorf("-racks %q: bad zone count %q", s, zoneStr)
		}
	}
	return racks, zones, nil
}

// parseRackStorm parses the -rack-storm syntax
// "drains:fails@start:span[:warn[:rejoin]]": drains racks drain gracefully,
// fails racks fail (after a warn-second warning drain when given), each at a
// seeded uniform time in [start, start+span), and every lost node rejoins
// rejoin seconds after it went away (0 = immediate backfill).
func parseRackStorm(s string) (drains, fails int, start, span, warn, rejoin float64, err error) {
	bad := func(what string) error {
		return fmt.Errorf("-rack-storm %q: %s (want drains:fails@start:span[:warn[:rejoin]])", s, what)
	}
	counts, window, ok := strings.Cut(s, "@")
	if !ok {
		err = bad("missing @window")
		return
	}
	drainStr, failStr, ok := strings.Cut(counts, ":")
	if !ok {
		err = bad("missing rack counts")
		return
	}
	if drains, err = strconv.Atoi(drainStr); err != nil || drains < 0 {
		err = bad(fmt.Sprintf("bad drain count %q", drainStr))
		return
	}
	if fails, err = strconv.Atoi(failStr); err != nil || fails < 0 {
		err = bad(fmt.Sprintf("bad fail count %q", failStr))
		return
	}
	parts := strings.Split(window, ":")
	if len(parts) < 2 || len(parts) > 4 {
		err = bad("window wants 2 to 4 fields")
		return
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		if vals[i], err = strconv.ParseFloat(p, 64); err != nil {
			err = bad(fmt.Sprintf("bad number %q", p))
			return
		}
	}
	start, span = vals[0], vals[1]
	if len(vals) > 2 {
		warn = vals[2]
	}
	if len(vals) > 3 {
		rejoin = vals[3]
	}
	return drains, fails, start, span, warn, rejoin, nil
}

// parseNodeEvents parses the -node-events syntax: a comma-separated list of
// kind@seconds[:nodeID] items, e.g. "drain@600:3,fail@900:7,join@1200".
// Joins take the platform's default node spec and need no target.
func parseNodeEvents(s string) ([]cluster.NodeEvent, error) {
	if s == "" {
		return nil, nil
	}
	var events []cluster.NodeEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		kindStr, rest, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("node event %q: want kind@seconds[:nodeID]", item)
		}
		var kind cluster.NodeEventKind
		switch kindStr {
		case "join":
			kind = cluster.NodeJoin
		case "drain":
			kind = cluster.NodeDrain
		case "fail":
			kind = cluster.NodeFail
		default:
			return nil, fmt.Errorf("node event %q: unknown kind %q (join|drain|fail)", item, kindStr)
		}
		atStr, nodeStr, hasNode := strings.Cut(rest, ":")
		at, err := strconv.ParseFloat(atStr, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("node event %q: bad time %q", item, atStr)
		}
		ev := cluster.NodeEvent{At: at, Kind: kind}
		if kind == cluster.NodeJoin {
			if hasNode {
				return nil, fmt.Errorf("node event %q: join takes no node ID", item)
			}
		} else {
			if !hasNode {
				return nil, fmt.Errorf("node event %q: %s needs a target node ID", item, kindStr)
			}
			ev.Node, err = strconv.Atoi(nodeStr)
			if err != nil || ev.Node < 0 {
				return nil, fmt.Errorf("node event %q: bad node ID %q", item, nodeStr)
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

// parseClasses parses the -classes syntax: comma-separated
// name:weight:frac[:preempt][:capN] items, e.g.
// "latency:4:0.3:cap30,batch:1:0.7:preempt" — weight orders classes for
// admission, frac is the class's share of the stream, "preempt" marks its
// executors reclaimable, and "capN" caps its job inputs at N GB. The
// shorthand "latency-batch" is the canonical study mix.
func parseClasses(s string) ([]workload.ClassShare, error) {
	if s == "" {
		return nil, nil
	}
	if s == "latency-batch" {
		return workload.LatencyBatchMix(0.3), nil
	}
	var mix []workload.ClassShare
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		parts := strings.Split(item, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("class %q: want name:weight:frac[:preempt][:capN]", item)
		}
		w, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("class %q: bad weight %q", item, parts[1])
		}
		f, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("class %q: bad share %q", item, parts[2])
		}
		cs := workload.ClassShare{Class: workload.Class{Name: parts[0], Weight: w}, Frac: f}
		for _, opt := range parts[3:] {
			switch {
			case opt == "preempt":
				cs.Class.Preemptible = true
			case strings.HasPrefix(opt, "cap"):
				gb, err := strconv.ParseFloat(opt[len("cap"):], 64)
				if err != nil || gb <= 0 {
					return nil, fmt.Errorf("class %q: bad input cap %q", item, opt)
				}
				cs.MaxInputGB = gb
			default:
				return nil, fmt.Errorf("class %q: unknown option %q (preempt|capN)", item, opt)
			}
		}
		mix = append(mix, cs)
	}
	return mix, nil
}

// buildDriftArrivals generates the non-stationary stream for -drift, with
// the drift study's own workload shape (the constants are shared with
// internal/experiments so the CLI and `reproduce -exp drift` never desync):
// growth ramps ~2 GB inputs by 50x while the log-family cohort's counters
// drift onto the saturating cluster; regimes switch between the clean
// catalogue and the skewed cohort every few jobs.
func buildDriftArrivals(kind string, apps int, ratePerHour float64, seed int64) ([]workload.Arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	ratePerSec := ratePerHour / 3600
	switch kind {
	case "growth":
		return workload.GrowthArrivals(apps, ratePerSec,
			experiments.DriftGrowthStartGB, experiments.DriftGrowthFactor, experiments.DriftSkew, rng)
	case "regimes":
		return workload.RegimeArrivals(apps, ratePerSec,
			experiments.DriftRegimePeriod, experiments.DriftSkew, rng)
	default:
		return nil, fmt.Errorf("unknown drift workload %q (growth|regimes)", kind)
	}
}

// buildArrivals generates the open-system submission stream for -arrivals.
func buildArrivals(kind string, apps int, ratePerHour, burstLen, idleSec, periodSec float64, seed int64) ([]workload.Arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	ratePerSec := ratePerHour / 3600
	switch kind {
	case "poisson":
		return workload.PoissonArrivals(apps, ratePerSec, rng)
	case "bursty":
		// Within bursts jobs arrive 10x faster than the mean rate. When no
		// explicit idle gap is given, derive it so the long-run average
		// matches -rate: the mean gap per arrival is
		// idle/burstLen + (1-1/burstLen)/burstRate and must equal 1/rate.
		burstRate := ratePerSec * 10
		if idleSec <= 0 {
			idleSec = burstLen * (1/ratePerSec - (1-1/burstLen)/burstRate)
		}
		return workload.BurstyArrivals(apps, burstRate, burstLen, idleSec, rng)
	case "diurnal":
		return workload.DiurnalArrivals(apps, ratePerSec, 0.8, periodSec, rng)
	default:
		return nil, fmt.Errorf("unknown arrival process %q (poisson|bursty|diurnal)", kind)
	}
}

// jsonApp is one per-application record of the -json output.
type jsonApp struct {
	ID            int     `json:"id"`
	Application   string  `json:"application"`
	Class         string  `json:"class,omitempty"`
	SubmitSec     float64 `json:"submitSec"`
	IsolatedSec   float64 `json:"isolatedSec"`
	WaitSec       float64 `json:"waitSec"`
	TurnaroundSec float64 `json:"turnaroundSec"`
	// PredictedGB is the policy's fair-share footprint prediction recorded
	// at Prepare time (absent when the policy made no prediction).
	PredictedGB  float64 `json:"predictedGB,omitempty"`
	OOMKills     int     `json:"oomKills"`
	PreemptKills int     `json:"preemptKills,omitempty"`
}

// jsonShard is one event-loop shard's share of the run: the nodes homed on
// it, the per-node rate recomputations it executed, and the wake-up expiries
// it served.
type jsonShard struct {
	Shard int   `json:"shard"`
	Nodes int   `json:"nodes"`
	Rated int64 `json:"rated"`
	Wakes int64 `json:"wakes"`
}

// jsonOutput is the machine-readable result of one run.
type jsonOutput struct {
	Policy       string  `json:"policy"`
	Placer       string  `json:"placer,omitempty"`
	Fleet        string  `json:"fleet"`
	Nodes        int     `json:"nodes"`
	Seed         int64   `json:"seed"`
	Applications int     `json:"applications"`
	STP          float64 `json:"stp"`
	ANTT         float64 `json:"antt"`
	MakespanSec  float64 `json:"makespanSec"`
	OOMKills     int     `json:"oomKills"`
	FailKills    int     `json:"failKills"`

	// Resilience counters: executors evacuated from draining nodes, OOM
	// blacklist entries granted a cool-off, and work charged back after
	// kills (GB). Omitted when zero, so runs without failure-domain flags
	// print exactly as before.
	Migrations int     `json:"migrations,omitempty"`
	OOMRetries int     `json:"oomRetries,omitempty"`
	LostWorkGB float64 `json:"lostWorkGB,omitempty"`

	// Sharded event loop (-shards > 1 only, so single-loop runs print
	// exactly as before): the resolved shard count, the number of
	// epoch-synchronised loop iterations, and per-shard event counters.
	Shards     int         `json:"shards,omitempty"`
	Epochs     int         `json:"epochs,omitempty"`
	ShardStats []jsonShard `json:"shardStats,omitempty"`

	// Closed-batch only: comparison against the serial isolated baseline.
	ANTTReductionPct *float64 `json:"anttReductionPct,omitempty"`
	SpeedupVsSerial  *float64 `json:"speedupVsSerial,omitempty"`

	// Open-system only.
	Arrivals    string                `json:"arrivals,omitempty"`
	RatePerHour float64               `json:"ratePerHour,omitempty"`
	Queueing    *metrics.QueueMetrics `json:"queueing,omitempty"`

	// Multi-tenant only.
	PreemptKills int                         `json:"preemptKills,omitempty"`
	Classes      []metrics.ClassQueueMetrics `json:"classes,omitempty"`

	Apps []jsonApp `json:"apps"`
}

func main() {
	var (
		policy         = flag.String("policy", "moe", "isolated|pairwise|quasar|moe|oracle|online|unified-linear|unified-exp|unified-log")
		placer         = flag.String("placer", "firstfit", "placement scoring: firstfit|bestfit|speed")
		scenario       = flag.String("scenario", "L8", "task-mix scenario label (Table 3: L1..L10)")
		table4         = flag.Bool("table4", false, "use the paper's exact Table 4 mix instead of a random one")
		fleet          = flag.String("fleet", "uniform", "node fleet: uniform|bimodal|stragglers")
		nodes          = flag.Int("nodes", 40, "initial fleet size")
		shards         = flag.Int("shards", 1, "event-loop shards: partition the fleet into this many epoch-synchronised engines (results are bit-identical at any count; clamped to the fleet size)")
		nodeEvents     = flag.String("node-events", "", "timed lifecycle events, e.g. drain@600:3,fail@900:7,join@1200")
		racks          = flag.String("racks", "", "fleet topology \"racks[:zones]\", e.g. 8:2 (empty = no topology)")
		rackStorm      = flag.String("rack-storm", "", "seeded correlated rack storm \"drains:fails@start:span[:warn[:rejoin]]\" (requires -racks)")
		migrate        = flag.Bool("migrate", false, "gracefully evacuate draining nodes: checkpoint each executor and migrate it (or hand its state to a sibling)")
		retryBudget    = flag.Int("retry-budget", 0, "per-app OOM retry budget: blacklist entries cool off (doubling backoff) this many times before turning permanent (0 = legacy permanent blacklist)")
		refreshSizing  = flag.Bool("refresh-sizing", false, "re-derive executor-fleet caps as capacity frees instead of freezing them at admission")
		arrivals       = flag.String("arrivals", "", "open-system arrival process: poisson|bursty|diurnal (empty = closed batch)")
		drift          = flag.String("drift", "", "non-stationary open-system workload: growth|regimes (incompatible with -arrivals)")
		adapt          = flag.Bool("adapt", false, "use the feedback-driven adaptive MoE pipeline (requires -policy moe)")
		rate           = flag.Float64("rate", 60, "mean arrival rate in jobs/hour (open-system mode)")
		apps           = flag.Int("apps", 30, "stream length in jobs (open-system mode)")
		burstLen       = flag.Float64("burst", 5, "mean jobs per burst (bursty arrivals)")
		idleSec        = flag.Float64("idle", 0, "mean idle gap between bursts in seconds (bursty arrivals; 0 = derived so the long-run rate matches -rate)")
		period         = flag.Float64("period", 3600, "day/night period in seconds (diurnal arrivals)")
		window         = flag.Float64("window", 600, "throughput window in seconds (open-system mode)")
		classes        = flag.String("classes", "", `tenant class mix (open-system mode): "latency-batch" or name:weight:frac[:preempt][:capN],... (empty = single tenant)`)
		preempt        = flag.Bool("preempt", false, "let high-priority arrivals preempt preemptible executors (requires -classes)")
		keepForeignMem = flag.Bool("keep-foreign-mem", false, "keep completed co-runners' working sets resident (pre-settle-engine default; opt out of ReleaseForeignMem)")
		legacySizing   = flag.Bool("legacy-sizing", false, "size executor fleets with the reference formula regardless of free-node capacity (opt out of FleetAwareSizing)")
		cpuprofile     = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile     = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file at exit")
		seed           = flag.Int64("seed", 1, "random seed")
		verbose        = flag.Bool("verbose", false, "print per-application timings")
		jsonOut        = flag.Bool("json", false, "emit results as a JSON object instead of tables")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "moeschedsim:", err)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Declared after the CPU-profile defer so it runs first (LIFO) and
		// the CPU profile still captures everything up to normal exit.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
		}()
	}

	// Validate flag combinations up front so failures never follow partial
	// output.
	if *arrivals != "" && *drift != "" {
		fail(fmt.Errorf("-drift generates its own arrival stream; drop -arrivals"))
	}
	open := *arrivals != "" || *drift != ""
	if *table4 && open {
		fail(fmt.Errorf("-table4 is a closed-batch mix and is incompatible with -arrivals/-drift"))
	}
	if *jsonOut && *verbose {
		fail(fmt.Errorf("-json already includes per-application records; drop -verbose"))
	}
	mix, err := parseClasses(*classes)
	if err != nil {
		fail(err)
	}
	if mix != nil && !open {
		fail(fmt.Errorf("-classes tags a timed arrival stream and needs -arrivals"))
	}
	if *preempt {
		anyPreemptible := false
		for _, s := range mix {
			anyPreemptible = anyPreemptible || s.Class.Preemptible
		}
		if !anyPreemptible {
			fail(fmt.Errorf("-preempt needs a class mix with at least one preemptible class; set -classes with a :preempt option"))
		}
	}
	rackCount, zoneCount, err := parseRacks(*racks)
	if err != nil {
		fail(err)
	}
	if *rackStorm != "" && rackCount == 0 {
		fail(fmt.Errorf("-rack-storm drains whole racks and needs a -racks topology"))
	}
	if *retryBudget < 0 {
		fail(fmt.Errorf("-retry-budget %d: want a non-negative budget", *retryBudget))
	}
	if *shards < 1 {
		fail(fmt.Errorf("-shards %d: want at least one event-loop shard", *shards))
	}
	specs, err := buildFleet(*fleet, *nodes, rackCount, zoneCount, *seed)
	if err != nil {
		fail(err)
	}
	events, err := parseNodeEvents(*nodeEvents)
	if err != nil {
		fail(err)
	}
	if *rackStorm != "" {
		drains, fails, start, span, warn, rejoin, err := parseRackStorm(*rackStorm)
		if err != nil {
			fail(err)
		}
		storm, err := cluster.RackStormEvents(specs, drains, fails, start, span, warn, rejoin,
			rand.New(rand.NewSource(*seed+11)))
		if err != nil {
			fail(err)
		}
		events = append(events, storm...)
	}
	d, err := buildPolicy(*policy, *placer, *seed, *adapt)
	if err != nil {
		fail(err)
	}
	var p cluster.Scheduler = d
	if mix != nil {
		p = sched.NewPriority(d, *preempt)
	}

	cfg := cluster.DefaultConfig()
	cfg.Nodes = *nodes
	if *keepForeignMem {
		cfg.ReleaseForeignMem = false
	}
	if *legacySizing {
		cfg.FleetAwareSizing = false
	}
	cfg.MigrateOnDrain = *migrate
	cfg.OOMRetryBudget = *retryBudget
	cfg.RefreshFleetSizing = *refreshSizing
	cfg.Shards = *shards
	var c *cluster.Cluster
	if specs == nil {
		c = cluster.New(cfg)
	} else {
		c, err = cluster.NewHetero(cfg, specs)
		if err != nil {
			fail(err)
		}
	}
	if err := c.ScheduleNodeEvents(events...); err != nil {
		fail(err)
	}

	var res *cluster.Result
	var jobs []workload.Job
	if open {
		var stream []workload.Arrival
		if *drift != "" {
			stream, err = buildDriftArrivals(*drift, *apps, *rate, *seed)
		} else {
			stream, err = buildArrivals(*arrivals, *apps, *rate, *burstLen, *idleSec, *period, *seed)
		}
		if err != nil {
			fail(err)
		}
		if mix != nil {
			stream, err = workload.TagArrivals(stream, mix, rand.New(rand.NewSource(*seed+9)))
			if err != nil {
				fail(err)
			}
		}
		for _, a := range stream {
			jobs = append(jobs, a.Job)
		}
		res, err = c.RunOpen(cluster.Submissions(stream), p)
		if err != nil {
			fail(err)
		}
	} else {
		if *table4 {
			jobs, err = workload.Table4Mix()
		} else {
			var sc workload.Scenario
			sc, err = workload.ScenarioByLabel(*scenario)
			if err == nil {
				jobs = workload.RandomMix(sc, rand.New(rand.NewSource(*seed)))
			}
		}
		if err != nil {
			fail(err)
		}
		res, err = c.Run(jobs, p)
		if err != nil {
			fail(err)
		}
	}
	run, err := metrics.FromResult(c, res)
	if err != nil {
		fail(err)
	}
	var q metrics.QueueMetrics
	if open {
		if q, err = metrics.Queueing(res, *window); err != nil {
			fail(err)
		}
	}

	if *jsonOut {
		out := jsonOutput{
			Policy: p.Name(), Fleet: *fleet, Nodes: *nodes, Seed: *seed,
			Applications: len(jobs),
			STP:          run.STP, ANTT: run.ANTT,
			MakespanSec: run.MakespanSec,
			OOMKills:    run.OOMKills, FailKills: res.FailKills,
			Migrations: res.Migrations, OOMRetries: res.OOMRetries,
			LostWorkGB: res.LostWorkGB,
		}
		if *placer != "firstfit" {
			out.Placer = *placer
		}
		if *shards > 1 {
			out.Shards = c.Shards()
			out.Epochs = res.Epochs
			for _, s := range res.ShardStats {
				out.ShardStats = append(out.ShardStats, jsonShard{
					Shard: s.Shard, Nodes: s.Nodes, Rated: s.Rated, Wakes: s.Wakes,
				})
			}
		}
		if open {
			out.Arrivals = *arrivals
			if *drift != "" {
				out.Arrivals = "drift-" + *drift
			}
			out.RatePerHour = *rate
			out.Queueing = &q
			if mix != nil {
				out.PreemptKills = res.PreemptKills
				if out.Classes, err = metrics.QueueingByClass(res, *window); err != nil {
					fail(err)
				}
			}
		} else {
			base := metrics.SerialBaseline(c, jobs)
			cmp := metrics.Compare(run, base)
			out.ANTTReductionPct = &cmp.ANTTReductionPct
			out.SpeedupVsSerial = &cmp.Speedup
		}
		for _, a := range res.Apps {
			out.Apps = append(out.Apps, jsonApp{
				ID: a.ID, Application: a.Job.String(), Class: a.Class.Name,
				SubmitSec: a.SubmitTime, IsolatedSec: c.IsolatedTime(a.Job),
				WaitSec: a.WaitSec(), TurnaroundSec: a.Turnaround(),
				PredictedGB: a.PredictedGB,
				OOMKills:    a.OOMKills, PreemptKills: a.PreemptKills,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("policy        %s\n", p.Name())
	if *fleet != "uniform" || *nodeEvents != "" {
		fmt.Printf("fleet         %s, %d nodes", *fleet, *nodes)
		if *nodeEvents != "" {
			fmt.Printf(", events: %s", *nodeEvents)
		}
		fmt.Println()
	}
	fmt.Printf("applications  %d\n", len(jobs))
	fmt.Printf("STP           %.2f   (Eq. 1, normalized to isolated execution)\n", run.STP)
	fmt.Printf("ANTT          %.2f   (Eq. 2)\n", run.ANTT)
	if open {
		// The closed-batch serial baseline assumes every job is available at
		// t=0; under timed arrivals the makespan is dominated by the arrival
		// span, so the baseline comparison would mislead. The queueing
		// metrics below are the open-system figures of merit.
		kind := *arrivals
		if *drift != "" {
			kind = "drift-" + *drift
		}
		fmt.Printf("arrivals      %s, %.0f jobs/hour configured\n", kind, *rate)
		fmt.Printf("makespan      %.1f min\n", run.MakespanSec/60)
	} else {
		base := metrics.SerialBaseline(c, jobs)
		cmp := metrics.Compare(run, base)
		fmt.Printf("ANTT redux    %.1f%%  (vs serial isolated baseline)\n", cmp.ANTTReductionPct)
		fmt.Printf("makespan      %.1f min (serial baseline: %.1f min, %.2fx speedup)\n",
			run.MakespanSec/60, base.MakespanSec/60, cmp.Speedup)
	}
	fmt.Printf("OOM kills     %d\n", run.OOMKills)
	if res.FailKills > 0 {
		fmt.Printf("fail kills    %d   (executors lost to node failures)\n", res.FailKills)
	}
	if res.Migrations > 0 {
		fmt.Printf("migrations    %d   (executors evacuated from draining nodes)\n", res.Migrations)
	}
	if res.OOMRetries > 0 {
		fmt.Printf("OOM retries   %d   (blacklist entries granted a cool-off)\n", res.OOMRetries)
	}
	if res.LostWorkGB > 0 {
		fmt.Printf("lost work     %.1f GB (charged back after kills)\n", res.LostWorkGB)
	}
	if *shards > 1 {
		fmt.Printf("shards        %d   (%d epochs; bit-identical to -shards 1)\n", c.Shards(), res.Epochs)
		for _, s := range res.ShardStats {
			fmt.Printf("  shard %-5d %d nodes, %d rates recomputed, %d wake-ups served\n",
				s.Shard, s.Nodes, s.Rated, s.Wakes)
		}
	}

	if open {
		fmt.Println()
		fmt.Printf("mean wait     %.1f s (max %.1f s)\n", q.MeanWaitSec, q.MaxWaitSec)
		fmt.Printf("sojourn       mean %.1f s, p50 %.1f s, p95 %.1f s, p99 %.1f s\n",
			q.MeanSojournSec, q.P50SojournSec, q.P95SojournSec, q.P99SojournSec)
		fmt.Printf("throughput    %.1f jobs/hour achieved\n", q.ThroughputJobsPerHour)
		if mix != nil {
			byClass, err := metrics.QueueingByClass(res, 0)
			if err != nil {
				fail(err)
			}
			if res.PreemptKills > 0 {
				fmt.Printf("preempted     %d executors (work charged back to their apps)\n", res.PreemptKills)
			}
			fmt.Println()
			fmt.Printf("%-12s %5s %5s %10s %10s %10s %8s\n",
				"class", "wt", "apps", "wait(s)", "p99 soj(s)", "jobs/h", "preempts")
			for _, cq := range byClass {
				fmt.Printf("%-12s %5.1f %5d %10.1f %10.1f %10.1f %8d\n",
					cq.Class, cq.Weight, cq.Apps, cq.MeanWaitSec, cq.P99SojournSec,
					cq.ThroughputJobsPerHour, cq.PreemptKills)
			}
		}
		if *verbose {
			fmt.Println()
			fmt.Printf("%-10s %-10s %s\n", "window(s)", "completed", "jobs/hour")
			for _, w := range q.Windows {
				fmt.Printf("%5.0f-%-5.0f %-10d %.1f\n", w.StartSec, w.EndSec, w.Completed, w.JobsPerHour)
			}
		}
	}

	if *verbose {
		fmt.Println()
		fmt.Printf("%-4s %-28s %10s %10s %10s %10s %8s %9s\n", "id", "application", "submit(s)", "cis(s)", "wait(s)", "turn(s)", "stp", "pred(GB)")
		for _, a := range res.Apps {
			cis := c.IsolatedTime(a.Job)
			pred := "-"
			if a.PredictedGB > 0 {
				pred = fmt.Sprintf("%.1f", a.PredictedGB)
			}
			fmt.Printf("%-4d %-28s %10.0f %10.0f %10.0f %10.0f %8.2f %9s\n",
				a.ID, a.Job.String(), a.SubmitTime, cis, a.WaitSec(), a.Turnaround(), cis/a.Turnaround(), pred)
		}
	}
}
