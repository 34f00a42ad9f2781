// Package moespark is a Go reproduction of "Improving Spark Application
// Throughput Via Memory Aware Task Co-location: A Mixture of Experts
// Approach" (Marco, Taylor, Porter, Wang — Middleware '17).
//
// The package re-exports the user-facing API of the reproduction:
//
//   - a mixture-of-experts memory-footprint predictor (Train / Predictor),
//   - the memory-function experts themselves (curve families, fitting,
//     two-point calibration),
//   - a discrete-event simulator of the paper's 40-node Spark/YARN testbed,
//     usable both as a closed batch (all jobs at t=0, the paper's setting)
//     and as an open system consuming a stream of timed submissions,
//   - seeded arrival-process generators (Poisson, bursty on/off, diurnal
//     ramp) and queueing metrics (wait, sojourn percentiles, windowed
//     throughput) for the open-system setting,
//   - heterogeneous fleets: per-node hardware specs (NewHeteroCluster),
//     seeded fleet generators (uniform, bimodal big/little, long-tail
//     stragglers), timed node lifecycle events (join, drain, fail — a
//     drained node is decommissioned once its last executor and foreign
//     task finish) and fleet-imbalance metrics,
//   - multi-tenant priority classes: class-tagged arrival streams
//     (TagArrivals), weighted-FCFS admission, class-aware placement and
//     preemptive scheduling (NewPriorityScheduler) with per-class queueing
//     metrics (MeasureQueueingByClass),
//   - an online prediction pipeline: schedulers consume a Predictor
//     interface rather than a concrete model, the engine reports every
//     executor's realised footprint back through the scheduler (completion
//     and OOM), and the adaptive implementation
//     (NewAdaptiveMoEScheduler) recalibrates expert coefficients
//     incrementally and retrains the gate from that feedback — with seeded
//     drift generators (GrowthArrivals, RegimeArrivals) for the
//     non-stationary workloads where adaptation pays,
//   - the paper's co-location schedulers (Pairwise, Quasar, MoE, Oracle,
//     OnlineSearch, unified single-model baselines), each accepting a
//     pluggable placement scorer (best-fit-memory, speed-aware; none means
//     first fit), and
//   - the evaluation harness that regenerates every table and figure of the
//     paper (see internal/experiments and cmd/reproduce).
//
// Quick start (closed batch, the paper's setting):
//
//	rng := rand.New(rand.NewSource(1))
//	model, err := moespark.TrainDefaultModel(rng)
//	...
//	sim := moespark.NewCluster(moespark.DefaultClusterConfig())
//	res, err := sim.Run(jobs, moespark.NewMoEScheduler(model, rng))
//
// Open system (streaming submissions): generate a timed arrival stream,
// replay it through RunOpen, and read the queueing metrics:
//
//	arrivals, err := moespark.PoissonArrivals(100, 80.0/3600, rng) // 80 jobs/hour
//	...
//	sim := moespark.NewCluster(moespark.DefaultClusterConfig())
//	res, err := sim.RunOpen(moespark.SubmissionsFromArrivals(arrivals),
//		moespark.NewMoEScheduler(model, rng))
//	q, err := moespark.MeasureQueueing(res, 600) // 10-minute throughput windows
//	fmt.Println(q.MeanWaitSec, q.P95SojournSec, q.ThroughputJobsPerHour)
//
// Closed-batch Run is a thin wrapper over RunOpen with every submission at
// t=0 and produces identical results to the pre-open-system engine.
//
// Multi-tenant priority classes: tag the stream with tenant classes, take a
// priority copy of any dispatcher-based scheme (weighted FCFS, class-aware
// placement, optional preemption of preemptible executors with OOM-style
// charge-back), and read per-class queueing metrics:
//
//	tagged, err := moespark.TagArrivals(arrivals, moespark.LatencyBatchMix(0.3), rng)
//	...
//	sim := moespark.NewCluster(moespark.DefaultClusterConfig())
//	res, err := sim.RunOpen(moespark.SubmissionsFromArrivals(tagged),
//		moespark.NewPriorityScheduler(sched, true)) // true = preempt
//	byClass, err := moespark.MeasureQueueingByClass(res, 0)
//	fmt.Println(byClass[0].Class, byClass[0].P99SojournSec, res.PreemptKills)
//
// Untagged streams behave bit-for-bit like runs predating priority classes,
// even under a priority copy.
//
// See examples/ for complete programs.
package moespark

import (
	"io"
	"math/rand"

	"moespark/internal/cluster"
	"moespark/internal/memfunc"
	"moespark/internal/metrics"
	"moespark/internal/moe"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// Re-exported core types. The heavy lifting lives in internal packages; the
// aliases below are the stable public surface.
type (
	// Model is a trained mixture-of-experts memory predictor.
	Model = moe.Model
	// ModelConfig controls training (K, PCA settings, confidence factor).
	ModelConfig = moe.Config
	// TrainingProgram is one offline training example.
	TrainingProgram = moe.TrainingProgram
	// Prediction is a calibrated memory function for one application.
	Prediction = moe.Prediction

	// Predictor is the online prediction pipeline the schedulers consume:
	// Predict selects and calibrates an expert, Observe feeds realised
	// footprints back (a no-op on the static paper model).
	Predictor = moe.Predictor
	// PredictorObservation is one predicted-vs-actual footprint outcome.
	PredictorObservation = moe.Observation
	// AdaptiveConfig tunes the feedback-driven predictor (sliding window,
	// forgetting factor, gate reweighting and teaching thresholds).
	AdaptiveConfig = moe.AdaptiveConfig
	// AdaptivePredictor is the feedback-driven mixture-of-experts predictor.
	AdaptivePredictor = moe.Adaptive

	// MemoryFunc is an instantiated memory-function expert.
	MemoryFunc = memfunc.Func
	// MemoryFamily enumerates the expert families.
	MemoryFamily = memfunc.Family
	// ProfilePoint is one (input size, footprint) profiling observation.
	ProfilePoint = memfunc.Point

	// Benchmark is a synthetic Spark application model.
	Benchmark = workload.Benchmark
	// Job is one application submission (benchmark + input size).
	Job = workload.Job
	// Arrival is one timed job submission of an open-system stream.
	Arrival = workload.Arrival
	// Class is one tenant priority class (name, admission weight,
	// preemptibility); the zero Class is the untagged single-tenant default.
	Class = workload.Class
	// ClassShare is one entry of a tenant class mix: class, stream share and
	// workload profile.
	ClassShare = workload.ClassShare

	// Cluster is the discrete-event simulator of the evaluation platform.
	Cluster = cluster.Cluster
	// ClusterConfig holds the settings that vary between simulated runs;
	// the rest of the platform is the paper's testbed, fixed.
	ClusterConfig = cluster.Config
	// NodeSpec is one node's hardware description (heterogeneous fleets).
	NodeSpec = cluster.NodeSpec
	// NodeEvent is one timed node lifecycle event (join, drain, fail).
	NodeEvent = cluster.NodeEvent
	// NodeEventKind enumerates node lifecycle event kinds.
	NodeEventKind = cluster.NodeEventKind
	// NodeClass describes one node class for the fleet generators.
	NodeClass = workload.NodeClass
	// Scheduler is a co-location policy driving the simulator.
	Scheduler = cluster.Scheduler
	// Dispatcher is the configurable job dispatcher behind every scheduler
	// constructor; its Placer field selects the placement scorer, and a nil
	// Placer places first fit in node-scan order.
	Dispatcher = sched.Dispatcher
	// Placer scores candidate nodes for executor placement.
	Placer = sched.Placer
	// Submission is one timed arrival consumed by Cluster.RunOpen.
	Submission = cluster.Submission
	// Result summarises a simulation run.
	Result = cluster.Result
	// Imbalance summarises fleet utilization imbalance from a trace.
	Imbalance = metrics.Imbalance

	// RunMetrics holds the paper's STP / ANTT metrics for one run.
	RunMetrics = metrics.RunMetrics
	// Comparison sets a run against the serial isolated baseline.
	Comparison = metrics.Comparison
	// QueueMetrics holds the open-system queueing metrics for one run.
	QueueMetrics = metrics.QueueMetrics
	// ClassQueueMetrics is the queueing summary of one tenant class.
	ClassQueueMetrics = metrics.ClassQueueMetrics
	// ThroughputWindow is one windowed-throughput sample.
	ThroughputWindow = metrics.ThroughputWindow
)

// Expert families (Table 1 of the paper).
const (
	LinearPower  = memfunc.LinearPower
	Exponential  = memfunc.Exponential
	NapierianLog = memfunc.NapierianLog
)

// Node lifecycle event kinds.
const (
	NodeJoin  = cluster.NodeJoin
	NodeDrain = cluster.NodeDrain
	NodeFail  = cluster.NodeFail
)

// TrainModel trains a mixture-of-experts predictor on arbitrary training
// programs.
func TrainModel(programs []TrainingProgram, cfg ModelConfig) (*Model, error) {
	return moe.Train(programs, cfg)
}

// TrainDefaultModel trains on the paper's 16 HiBench + BigDataBench
// programs.
func TrainDefaultModel(rng *rand.Rand) (*Model, error) {
	return moe.TrainDefault(rng)
}

// SaveModel serialises a trained model's deployable artefacts (scaler
// bounds, PCA matrix, labelled programs) as JSON.
func SaveModel(m *Model, w io.Writer) error { return m.Save(w) }

// LoadModel reconstructs a model saved with SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return moe.Load(r) }

// Replay is the paper's measurement protocol: repeat a run until the 95 %
// confidence interval of mean STP is within 5 % of the mean.
type Replay = metrics.Replay

// ReplayOutcome reports a converged replayed measurement.
type ReplayOutcome = metrics.ReplayOutcome

// BestFit fits all expert families to profiling points and returns the best,
// the offline labelling step of training.
func BestFit(points []ProfilePoint) (memfunc.Fit, error) { return memfunc.BestFit(points) }

// Calibrate instantiates one family's coefficients from two profiling
// observations (the paper's 5 %/10 % runs).
func Calibrate(family MemoryFamily, p1, p2 ProfilePoint) (MemoryFunc, error) {
	return memfunc.Calibrate(family, p1, p2)
}

// BenchmarkCatalog returns the 44-benchmark evaluation catalogue.
func BenchmarkCatalog() []*Benchmark { return workload.Catalog() }

// FindBenchmark looks a benchmark up by suite-qualified name (e.g.
// "HB.Sort").
func FindBenchmark(name string) (*Benchmark, error) { return workload.Find(name) }

// Table4Mix returns the paper's 30-application mix (Table 4).
func Table4Mix() ([]Job, error) { return workload.Table4Mix() }

// DefaultClusterConfig returns the paper's 40-node platform.
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// NewCluster creates an idle simulated cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// NewHeteroCluster creates an idle heterogeneous cluster with one node per
// spec; platform-wide behaviour still comes from cfg.
func NewHeteroCluster(cfg ClusterConfig, specs []NodeSpec) (*Cluster, error) {
	return cluster.NewHetero(cfg, specs)
}

// PaperNodeClass is the paper's testbed machine; BigNodeClass and
// LittleNodeClass are the bimodal-fleet classes.
func PaperNodeClass() NodeClass  { return workload.PaperNode() }
func BigNodeClass() NodeClass    { return workload.BigNode() }
func LittleNodeClass() NodeClass { return workload.LittleNode() }

// UniformFleet returns n identical nodes of the given class.
func UniformFleet(n int, class NodeClass) ([]NodeClass, error) {
	return workload.UniformFleet(n, class)
}

// BimodalFleet returns a seeded n-node big/little mix.
func BimodalFleet(n int, big, little NodeClass, bigFrac float64, rng *rand.Rand) ([]NodeClass, error) {
	return workload.BimodalFleet(n, big, little, bigFrac, rng)
}

// StragglerFleet returns a seeded n-node fleet with a long-tail slow
// fraction.
func StragglerFleet(n int, base NodeClass, stragglerFrac, minSpeed float64, rng *rand.Rand) ([]NodeClass, error) {
	return workload.StragglerFleet(n, base, stragglerFrac, minSpeed, rng)
}

// SpecsFromFleet converts a fleet description into per-node specs for
// NewHeteroCluster.
func SpecsFromFleet(fleet []NodeClass) []NodeSpec { return cluster.SpecsFrom(fleet) }

// StormEvents generates a seeded drain/fail storm with backfill joins over
// an initial fleet of nodeCount nodes.
func StormEvents(nodeCount, drains, fails int, start, span, rejoinDelay float64, rng *rand.Rand) ([]NodeEvent, error) {
	return cluster.StormEvents(nodeCount, drains, fails, start, span, rejoinDelay, rng)
}

// Placement scorers for Dispatcher.Placer: tightest-memory-fit bin packing,
// and speed-aware placement for heterogeneous fleets. A nil Placer, the
// default, is first fit in node-scan order.
func NewBestFitMemoryPlacer() Placer { return sched.NewBestFitMemory() }
func NewSpeedAwarePlacer() Placer    { return sched.NewSpeedAware() }

// MeasureImbalance computes fleet utilization-imbalance metrics from a
// traced run (set ClusterConfig.TraceInterval).
func MeasureImbalance(res *Result) (Imbalance, error) {
	return metrics.UtilizationImbalance(res.Trace)
}

// Scheduler constructors for the paper's comparative schemes. Each returns
// the concrete *Dispatcher (which implements Scheduler) so it can be tuned —
// e.g. given a Placer — or lifted by NewPriorityScheduler.
func NewIsolatedScheduler() *Dispatcher { return sched.NewIsolated() }

// NewPairwiseScheduler returns the pairwise co-location baseline.
func NewPairwiseScheduler() *Dispatcher { return sched.NewPairwise() }

// NewMoEScheduler returns the paper's scheme backed by a trained model (the
// static predict-once-at-submission pipeline).
func NewMoEScheduler(model *Model, rng *rand.Rand) *Dispatcher { return sched.NewMoE(model, rng) }

// NewStaticPredictor wraps a trained model as a non-adaptive Predictor.
func NewStaticPredictor(model *Model) Predictor { return moe.NewStatic(model) }

// NewAdaptivePredictor wraps a trained model with online adaptation state:
// incremental expert recalibration from observed footprints, capped gate
// reweighting, and evidence-validated gate self-training. The model is
// cloned. Pair each predictor with one scheduler (NewPredictorScheduler);
// to warm-start a later run from the learned state, reuse that scheduler as
// a whole rather than re-wrapping the predictor.
func NewAdaptivePredictor(model *Model, cfg AdaptiveConfig) *AdaptivePredictor {
	return moe.NewAdaptive(model, cfg)
}

// NewAdaptiveMoEScheduler returns the feedback-driven MoE scheme: the
// engine reports each executor's realised footprint back through the
// scheduler (completion and OOM), and the predictor recalibrates
// mid-stream. The zero AdaptiveConfig selects the defaults used by the
// drift study.
func NewAdaptiveMoEScheduler(model *Model, cfg AdaptiveConfig, rng *rand.Rand) *Dispatcher {
	return sched.NewAdaptiveMoE(model, cfg, rng)
}

// NewPredictorScheduler returns an MoE-style scheme driven by an arbitrary
// prediction pipeline implementation.
func NewPredictorScheduler(p Predictor, rng *rand.Rand) *Dispatcher {
	return sched.NewMoEPredictor(p, rng)
}

// NewOracleScheduler returns the ideal-predictor scheme.
func NewOracleScheduler() *Dispatcher { return sched.NewOracle() }

// NewOnlineSearchScheduler returns the gradient-probing baseline.
func NewOnlineSearchScheduler(rng *rand.Rand) *Dispatcher { return sched.NewOnlineSearch(rng) }

// QuasarModel is the classification-based comparator's workload index.
type QuasarModel = sched.QuasarModel

// TrainQuasarModel builds the Quasar comparator from the paper's training
// benchmarks.
func TrainQuasarModel(rng *rand.Rand) (*QuasarModel, error) {
	return sched.TrainQuasar(workload.TrainingSet(), rng)
}

// NewQuasarScheduler returns the Quasar comparator scheme.
func NewQuasarScheduler(model *QuasarModel, rng *rand.Rand) *Dispatcher {
	return sched.NewQuasar(model, rng)
}

// NewUnifiedScheduler returns a single-family baseline scheme (Figure 9).
func NewUnifiedScheduler(family MemoryFamily, rng *rand.Rand) *Dispatcher {
	return sched.NewUnified(family, rng)
}

// PoissonArrivals generates a seeded open-system stream with exponential
// inter-arrival gaps at the given mean rate (jobs per second), drawing jobs
// from the 44-benchmark catalogue.
func PoissonArrivals(n int, ratePerSec float64, rng *rand.Rand) ([]Arrival, error) {
	return workload.PoissonArrivals(n, ratePerSec, rng)
}

// BurstyArrivals generates a seeded on/off stream: bursts of mean size
// meanBurst at burstRate jobs/sec, separated by idle gaps of mean idleSec.
func BurstyArrivals(n int, burstRate, meanBurst, idleSec float64, rng *rand.Rand) ([]Arrival, error) {
	return workload.BurstyArrivals(n, burstRate, meanBurst, idleSec, rng)
}

// DiurnalArrivals generates a seeded stream with a sinusoidal day/night rate
// profile around baseRate (amplitude in [0,1), period in seconds).
func DiurnalArrivals(n int, baseRate, amplitude, periodSec float64, rng *rand.Rand) ([]Arrival, error) {
	return workload.DiurnalArrivals(n, baseRate, amplitude, periodSec, rng)
}

// GrowthArrivals generates a seeded drifting stream: input sizes ramp by the
// growth factor while the log-family cohort's runtime counters drift by skew
// toward the saturating cluster (0 disables behaviour drift).
func GrowthArrivals(n int, ratePerSec, startGB, growth, skew float64, rng *rand.Rand) ([]Arrival, error) {
	return workload.GrowthArrivals(n, ratePerSec, startGB, growth, skew, rng)
}

// RegimeArrivals generates a seeded drifting stream switching every
// periodJobs arrivals between the clean catalogue and a counter-skewed
// drift cohort.
func RegimeArrivals(n int, ratePerSec float64, periodJobs int, skew float64, rng *rand.Rand) ([]Arrival, error) {
	return workload.RegimeArrivals(n, ratePerSec, periodJobs, skew, rng)
}

// SubmissionsFromArrivals lifts a workload arrival stream into the engine's
// submission events for Cluster.RunOpen, carrying tenant class tags along.
func SubmissionsFromArrivals(arrivals []Arrival) []Submission {
	return cluster.Submissions(arrivals)
}

// TagArrivals assigns a tenant class to every arrival of a stream from the
// mix's share fractions, clamping each job to its class's input cap.
func TagArrivals(arrivals []Arrival, mix []ClassShare, rng *rand.Rand) ([]Arrival, error) {
	return workload.TagArrivals(arrivals, mix, rng)
}

// LatencyBatchMix is the canonical two-tenant mix: a latency-sensitive class
// (weight 4, interactive inputs) with the given stream share, and a
// preemptible batch class with the rest.
func LatencyBatchMix(latencyFrac float64) []ClassShare {
	return workload.LatencyBatchMix(latencyFrac)
}

// NewPriorityScheduler returns a copy of a dispatcher-based scheme with
// multi-tenant priority scheduling: weighted-FCFS admission, class-aware
// placement, and — when preempt is set — arrival-time preemption of
// preemptible lower-priority executors (lost work is charged back exactly
// like an OOM kill and reported in Result.PreemptKills). The given
// dispatcher is left untouched. Single-class runs are bit-for-bit identical
// to the original scheme.
func NewPriorityScheduler(d *Dispatcher, preempt bool) Scheduler {
	return sched.NewPriority(d, preempt)
}

// NewClassAwarePlacer wraps any placement scorer with tenant-priority
// avoidance: candidates hosting higher-weight tenants rank below all others.
func NewClassAwarePlacer(inner Placer) Placer { return sched.NewClassAware(inner) }

// MeasureQueueingByClass computes per-tenant-class queueing metrics for a
// finished run, ordered by descending class weight.
func MeasureQueueingByClass(res *Result, windowSec float64) ([]ClassQueueMetrics, error) {
	return metrics.QueueingByClass(res, windowSec)
}

// Measure computes the paper's metrics for a finished run.
func Measure(c *Cluster, res *Result) (RunMetrics, error) { return metrics.FromResult(c, res) }

// MeasureQueueing computes the open-system queueing metrics (wait, sojourn
// percentiles, throughput) for a finished run; windowSec > 0 adds windowed
// throughput samples.
func MeasureQueueing(res *Result, windowSec float64) (QueueMetrics, error) {
	return metrics.Queueing(res, windowSec)
}

// CompareToSerial sets a run against the serial isolated-execution baseline.
func CompareToSerial(c *Cluster, res *Result, jobs []Job) (Comparison, error) {
	run, err := metrics.FromResult(c, res)
	if err != nil {
		return Comparison{}, err
	}
	return metrics.Compare(run, metrics.SerialBaseline(c, jobs)), nil
}
