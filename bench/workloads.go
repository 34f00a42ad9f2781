package main

import (
	"fmt"
	"math/rand"
	"time"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/moe"
	"moespark/internal/sched"
	"moespark/internal/workload"
)

// spec is one benchmark workload. draw builds one input stream from its
// random source; model is the trained MoE when trains is set and nil
// otherwise; tiny selects the reduced size the tests replay.
type spec struct {
	name   string
	why    string
	trains bool
	draw   func(src source, tiny bool, model *moe.Model) (*inputStream, error)
	// driverPlacement marks a workload whose Schedule is the benchmark's own
	// packing driver rather than a policy from internal/sched.
	driverPlacement bool
}

var workloads = []spec{
	{
		name:   "moe-stream",
		why:    "the paper's static MoE scheme on a 64-node bimodal fleet at stream scale (Poisson 0.018/s, 50k apps), no prediction feedback",
		trains: true,
		draw:   moeStream,
	},
	{
		name:   "adaptive-drift",
		why:    "adaptive MoE on the 40-node paper cluster under regime drift: prediction reads interleave with recalibration and gate-teaching writes",
		trains: true,
		draw:   adaptiveDrift,
	},
	{
		name:            "colocation-dense",
		why:             "about six executors per busy node put the engine's per-node rate pass on the clock; prediction is bypassed, so serving changes must not move it",
		draw:            colocationDense,
		driverPlacement: true,
	},
	{
		name:   "fleet-storm",
		why:    "1024-node racked fleet under rack storms (drained racks migrate, failed racks lose their work): engine and placement cost that grows with node count",
		trains: true,
		draw:   fleetStorm,
	},
	{
		name:   "paper-closed",
		why:    "the paper's closed L1-L10 batches on its 40-node testbed: 4000 short runs and the only admission waves holding more than one app",
		trains: true,
		draw:   paperClosed,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputStreams is how many independent input streams a seed draws.
// Repetitions cycle through them, and the simulated metrics pool one replay
// of each, so they rest on four times the apps of one stream and move less
// from seed to seed.
const inputStreams = 4

// setup builds the workload's fixture for a seed: the trained model, when
// the workload needs one, then every input stream. Both are recorded as
// set-up spans in t.
func (w spec) setup(seed int64, tiny bool, t *tracer) (*fixture, error) {
	var model *moe.Model
	if w.trains {
		if err := timed(t, spanTrain, func() (err error) {
			model, err = moe.TrainDefault(system.rng(streamTrain))
			return err
		}); err != nil {
			return nil, err
		}
	}
	fx := &fixture{}
	err := timed(t, spanGen, func() error {
		for k := 0; k < inputStreams; k++ {
			s, err := w.draw(source{seed, k}, tiny, model)
			if err != nil {
				return fmt.Errorf("input stream %d: %w", k, err)
			}
			fx.streams = append(fx.streams, s)
		}
		return nil
	})
	return fx, err
}

// source draws input stream k of a seed. Every input has a random stream of
// its own, so changing how one is drawn never shifts another. The seed draws
// the inputs: job streams, storms and profiling noise. The fleets and the
// trained model are the system under test, drawn from system on every run,
// so that a run's simulated outcome varies with its inputs alone.
type source struct {
	seed int64
	k    int
}

var system = source{seed: 1}

const (
	streamFleet = iota + 1
	streamArrivals
	streamTags
	streamStorm
	streamTrain
	streamSched
	streamMixes
)

func (s source) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(s.seed*1_000_003 + int64(s.k)*100_003 + stream))
}

// pick returns the full-size value, or the test-size one when tiny is set.
func pick(tiny bool, full, small int) int {
	if tiny {
		return small
	}
	return full
}

// timed runs fn and records its duration as a set-up span.
func timed(t *tracer, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(name, spanSetup, time.Since(start))
	return err
}

// racked draws a bimodal big/little fleet and stamps rack and zone labels on
// it when racks > 0.
func racked(nodes, racks, zones int) ([]cluster.NodeSpec, error) {
	fleet, err := workload.BimodalFleet(nodes, workload.BigNode(), workload.LittleNode(), 0.5, system.rng(streamFleet))
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

func moeStream(src source, tiny bool, model *moe.Model) (*inputStream, error) {
	var sim simulation
	var err error
	if sim.specs, err = racked(64, 0, 0); err != nil {
		return nil, err
	}
	arrivals, err := workload.PoissonArrivals(pick(tiny, 50_000, 300), 0.018, src.rng(streamArrivals))
	if err != nil {
		return nil, err
	}
	sim.subs = cluster.Submissions(arrivals)
	sim.cfg = cluster.DefaultConfig()
	sim.sched = func() cluster.Scheduler { return sched.NewMoE(model, src.rng(streamSched)) }
	return newStream([]simulation{sim}), nil
}

func adaptiveDrift(src source, tiny bool, model *moe.Model) (*inputStream, error) {
	arrivals, err := workload.RegimeArrivals(pick(tiny, 60_000, 300), 0.1, 10, -0.35, src.rng(streamArrivals))
	if err != nil {
		return nil, err
	}
	sim := simulation{cfg: cluster.DefaultConfig(), subs: cluster.Submissions(arrivals)}
	// The predictor of the stream's latest repetition, so its learning
	// counters can be reported after the traced one.
	var last *moe.Adaptive
	sim.sched = func() cluster.Scheduler {
		last = moe.NewAdaptive(model, moe.AdaptiveConfig{})
		return sched.NewMoEPredictor(last, src.rng(streamSched))
	}
	s := newStream([]simulation{sim})
	s.learned = func() (int, int) { return last.Taught(), last.Observations() }
	return s, nil
}

func colocationDense(src source, tiny bool, _ *moe.Model) (*inputStream, error) {
	fleet, err := workload.UniformFleet(96, workload.BigNode())
	if err != nil {
		return nil, err
	}
	arrivals, err := workload.PoissonArrivals(pick(tiny, 8_000, 200), 0.04, src.rng(streamArrivals))
	if err != nil {
		return nil, err
	}
	// Inputs of 450-530 GB make every app want an executor on most of the
	// fleet, so each event dirties dozens of nodes. At 0.04 apps/s a busy
	// node runs about six executors; faster arrivals push the fleet towards
	// saturation, where the simulated outcome swings with the seed.
	for i := range arrivals {
		arrivals[i].Job.InputGB = 450 + 20*float64(i%5)
	}
	sim := simulation{cfg: cluster.DefaultConfig(), specs: cluster.SpecsFrom(fleet), subs: cluster.Submissions(arrivals)}
	sim.cfg.ExecutorSpreadGB = 3  // many small executors per app
	sim.cfg.MaxExecutorNodes = 96 // any app may reach the whole fleet
	sim.sched = func() cluster.Scheduler { return &packingDriver{} }
	return newStream([]simulation{sim}), nil
}

func fleetStorm(src source, tiny bool, model *moe.Model) (*inputStream, error) {
	var sim simulation
	var err error
	nodes, racks := pick(tiny, 1024, 64), pick(tiny, 64, 4)
	if sim.specs, err = racked(nodes, racks, 2); err != nil {
		return nil, err
	}
	arrivals, err := workload.PoissonArrivals(pick(tiny, 5_000, 300), 0.35, src.rng(streamArrivals))
	if err != nil {
		return nil, err
	}
	if arrivals, err = workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), src.rng(streamTags)); err != nil {
		return nil, err
	}
	sim.subs = cluster.Submissions(arrivals)
	// Six drained and four failed racks (one each at test size) land over
	// 10-90% of the arrival span and rejoin 180 s later. Drained racks
	// migrate their executors; failed racks go without warning, so their
	// executors are killed and their work is lost. Most racks sit idle at
	// this load, so a smaller storm often misses every busy one.
	span := arrivals[len(arrivals)-1].At
	sim.events, err = cluster.RackStormEvents(sim.specs, pick(tiny, 6, 1), pick(tiny, 4, 1), 0.1*span, 0.8*span, 0, 180, src.rng(streamStorm))
	if err != nil {
		return nil, err
	}
	sim.cfg = cluster.DefaultConfig()
	sim.cfg.MigrateOnDrain = true
	sim.cfg.OOMRetryBudget = 2
	sim.sched = func() cluster.Scheduler {
		return sched.NewPriority(sched.NewMoE(model, src.rng(streamSched)), true)
	}
	return newStream([]simulation{sim}), nil
}

func paperClosed(src source, tiny bool, model *moe.Model) (*inputStream, error) {
	draws := pick(tiny, 400, 2)
	rng := src.rng(streamMixes)
	var sims []simulation
	for _, sc := range workload.Scenarios {
		for i := 0; i < draws; i++ {
			stream := streamSched*1_000 + int64(len(sims))
			sims = append(sims, simulation{
				cfg:   cluster.DefaultConfig(),
				jobs:  workload.RandomMix(sc, rng),
				sched: func() cluster.Scheduler { return sched.NewMoE(model, src.rng(stream)) },
			})
		}
	}
	return newStream(sims), nil
}

// simulation is one cluster run of a repetition: either an open stream of
// submissions or a closed batch of jobs submitted at t=0.
type simulation struct {
	cfg cluster.Config
	// specs is the fleet; nil means the paper's uniform testbed of cfg.Nodes.
	specs  []cluster.NodeSpec
	events []cluster.NodeEvent
	subs   []cluster.Submission
	jobs   []workload.Job
	sched  func() cluster.Scheduler
}

func (s *simulation) build() (*cluster.Cluster, error) {
	var c *cluster.Cluster
	if s.specs == nil {
		c = cluster.New(s.cfg)
	} else {
		var err error
		if c, err = cluster.NewHetero(s.cfg, s.specs); err != nil {
			return nil, err
		}
	}
	if len(s.events) > 0 {
		if err := c.ScheduleNodeEvents(s.events...); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// fixture is a workload's generated input: the input streams repetitions
// replay.
type fixture struct {
	streams []*inputStream
}

// inputStream is what one repetition replays.
type inputStream struct {
	sims    []simulation
	apps    int
	inputGB float64
	// learned reports the adaptive predictor's taught samples and folded
	// observations after the stream's latest repetition; nil without one.
	learned func() (taught, observations int)
}

func newStream(sims []simulation) *inputStream {
	s := &inputStream{sims: sims}
	for _, sim := range sims {
		for _, sub := range sim.subs {
			s.apps++
			s.inputGB += sub.Job.InputGB
		}
		for _, j := range sim.jobs {
			s.apps++
			s.inputGB += j.InputGB
		}
	}
	return s
}

// inputHash fingerprints the generated inputs, so set-ups from the same seed
// can be checked to agree.
func (f *fixture) inputHash() uint64 {
	fp := newFingerprint()
	for _, s := range f.streams {
		s.hashInto(fp)
	}
	return fp.sum()
}

func (st *inputStream) hashInto(fp fingerprint) {
	job := func(j workload.Job) {
		fp.h.Write([]byte(j.Bench.FullName()))
		fp.float(j.InputGB)
	}
	for _, s := range st.sims {
		for _, sub := range s.subs {
			fp.float(sub.At)
			fp.h.Write([]byte(sub.Class.Name))
			job(sub.Job)
		}
		for _, j := range s.jobs {
			job(j)
		}
		for _, n := range s.specs {
			fp.float(n.RAMGB)
			fp.float(n.SpeedFactor)
			fp.h.Write([]byte(n.Rack))
		}
		for _, ev := range s.events {
			fp.float(ev.At)
			fp.uint(uint64(ev.Kind))
			fp.uint(uint64(ev.Node))
		}
	}
}

// repetition is what one replay of an input stream measured.
type repetition struct {
	simStats
	// measured is the measured phase's wall time and measuredCPU its CPU
	// time; reduced is the wall time spent reducing results, which the
	// measured phase excludes.
	measured, measuredCPU, reduced time.Duration
}

// replay runs one repetition of input stream k. Its measured phase is, for
// every simulation: build the cluster, schedule its node events, build the
// scheduler, then Run or RunOpen. It is timed in wall time and in the
// process's CPU time. Each result is reduced as soon as its
// simulation ends, outside the measured phase, so a repetition never holds
// more than one result. With a tracer the scheduler boundary is wrapped and
// the phases are recorded.
func (f *fixture) replay(k int, t *tracer) (repetition, error) {
	st := f.streams[k]
	var rep repetition
	rep.sojourns = make([]float64, 0, st.apps)
	fp := newFingerprint()
	for i := range st.sims {
		s := &st.sims[i]
		startCPU, start := cpuTime(), time.Now()
		c, err := s.build()
		if err != nil {
			return rep, err
		}
		sc := s.sched()
		if t != nil {
			sc = traceScheduler(sc, t)
			t.record(spanConstruct, spanRep, time.Since(start))
		}
		runStart := time.Now()
		var res *cluster.Result
		if s.jobs != nil {
			res, err = c.Run(s.jobs, sc)
		} else {
			res, err = c.RunOpen(s.subs, sc)
		}
		end, endCPU := time.Now(), cpuTime()
		rep.measured += end.Sub(start)
		rep.measuredCPU += endCPU - startCPU
		if t != nil {
			t.record(spanRun, spanRep, end.Sub(runStart))
		}
		if err != nil {
			return rep, fmt.Errorf("simulation %d: %w", i, err)
		}
		if err := rep.add(fp, c, res); err != nil {
			return rep, fmt.Errorf("simulation %d: %w", i, err)
		}
		reduced := time.Since(end)
		rep.reduced += reduced
		if t != nil {
			t.record(spanReduce, spanRep, reduced)
		}
	}
	rep.fingerprint = fp.sum()
	return rep, nil
}

// simStats is the simulated outcome of one repetition, or of several pooled.
// It depends only on the inputs, never on the host.
type simStats struct {
	apps int
	// stpSum is Eq. 1 summed over every app; anttSum sums each app's
	// turnaround over its isolated time, the terms Eq. 2 averages.
	stpSum, anttSum float64
	sojourns        []float64
	oomKills        int
	failKills       int
	migrations      int
	lostWorkGB      float64
	fingerprint     uint64
}

// add folds one simulation's result into the repetition's outcome and
// fingerprint. metrics.FromResult rejects a result with an unfinished app,
// which fails the repetition.
func (st *simStats) add(fp fingerprint, c *cluster.Cluster, r *cluster.Result) error {
	for _, a := range r.Apps {
		fp.float(a.SubmitTime)
		fp.float(a.ReadyTime)
		fp.float(a.StartTime)
		fp.float(a.DoneTime)
		st.sojourns = append(st.sojourns, a.SojournSec())
	}
	for _, v := range []int{r.OOMKills, r.FailKills, r.PreemptKills, r.Migrations, r.OOMRetries} {
		fp.uint(uint64(v))
	}
	fp.float(r.LostWorkGB)
	m, err := metrics.FromResult(c, r)
	if err != nil {
		return err
	}
	st.apps += len(r.Apps)
	st.oomKills += r.OOMKills
	st.failKills += r.FailKills
	st.migrations += r.Migrations
	st.lostWorkGB += r.LostWorkGB
	st.stpSum += m.STP
	st.anttSum += m.ANTT * float64(len(r.Apps))
	return nil
}

// pool adds another repetition's outcome to st.
func (st *simStats) pool(o simStats) {
	st.apps += o.apps
	st.stpSum += o.stpSum
	st.anttSum += o.anttSum
	st.sojourns = append(st.sojourns, o.sojourns...)
	st.oomKills += o.oomKills
	st.failKills += o.failKills
	st.migrations += o.migrations
	st.lostWorkGB += o.lostWorkGB
}
