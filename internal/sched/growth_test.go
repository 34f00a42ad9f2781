package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/memfunc"
	"moespark/internal/workload"
)

// execState is one executor's state as the growth pass leaves it: its app,
// its node and the bits of its reservation and data allocation.
type execState struct {
	app, node       int
	reserved, items uint64
}

// growthProbe drives a dispatcher (one that predicts and is not Serial) and
// records every executor's state after each Schedule call. With ref set, the
// growth pass visits refGrowList instead of the engine's growable list, and
// the probe counts the executors it grew.
type growthProbe struct {
	d      *Dispatcher
	ref    bool
	buf    []*cluster.Executor
	before []float64
	grown  int
	states [][]execState
}

func (p *growthProbe) Name() string { return p.d.Name() }

func (p *growthProbe) Prepare(c *cluster.Cluster, a *cluster.App) cluster.ProfilePlan {
	return p.d.Prepare(c, a)
}

func (p *growthProbe) Observe(c *cluster.Cluster, e *cluster.Executor, o cluster.ExecOutcome) {
	p.d.Observe(c, e, o)
}

func (p *growthProbe) Schedule(c *cluster.Cluster) {
	if p.ref {
		// Dispatcher.Schedule with the reference list.
		p.d.placeWaiting(c)
		p.buf = refGrowList(c, p.buf[:0])
		p.before = p.before[:0]
		for _, e := range p.buf {
			p.before = append(p.before, e.ItemsGB)
		}
		p.d.growExecutors(c, p.buf)
		for i, e := range p.buf {
			if e.ItemsGB != p.before[i] {
				p.grown++
			}
		}
		clear(p.buf)
	} else {
		p.d.Schedule(c)
	}
	var s []execState
	for _, n := range c.Nodes() {
		for _, e := range n.Executors {
			s = append(s, execState{e.App.ID, n.ID, math.Float64bits(e.ReservedGB), math.Float64bits(e.ItemsGB)})
		}
	}
	p.states = append(p.states, s)
}

// refGrowList is the growth pass's list before the engine kept its
// freed-node set: a walk of every running app's executors, in submission and
// then App.Executors order, keeping each executor below its fair share on a
// node with more than GrowMinFreeGB free. growExecutors' churn test then
// skips the executors within GrowChurn of their share, as it always did.
func refGrowList(c *cluster.Cluster, buf []*cluster.Executor) []*cluster.Executor {
	for _, a := range c.ActiveApps() {
		for _, e := range a.Executors {
			if e.ItemsGB < e.FairShareGB && e.Node.FreeGB() > cluster.GrowMinFreeGB {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

// firstStateDiff returns the first Schedule call after which the two probes'
// executor states differ, described, or "" when every call agrees.
func firstStateDiff(got, ref *growthProbe) string {
	if len(got.states) != len(ref.states) {
		return fmt.Sprintf("%d Schedule calls, reference %d", len(got.states), len(ref.states))
	}
	for call, s := range got.states {
		r := ref.states[call]
		if len(s) != len(r) {
			return fmt.Sprintf("call %d: %d executors, reference %d", call, len(s), len(r))
		}
		for i := range s {
			if s[i] != r[i] {
				return fmt.Sprintf("call %d: executor %d is app %d@node %d reserving %v GB for %v GB; reference app %d@node %d reserving %v GB for %v GB",
					call, i, s[i].app, s[i].node, math.Float64frombits(s[i].reserved), math.Float64frombits(s[i].items),
					r[i].app, r[i].node, math.Float64frombits(r[i].reserved), math.Float64frombits(r[i].items))
			}
		}
	}
	return ""
}

// growthRun is one seeded workload of TestGrowthPassMatchesFullWalk: build
// returns a fresh cluster, its submissions and a fresh dispatcher, the same
// on every call. A storm run must fail-kill, migrate and preempt.
type growthRun struct {
	name  string
	storm bool
	build func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher)
}

// TestGrowthPassMatchesFullWalk replays seeded runs twice: under the
// dispatcher's growth pass over the engine's growable list, and under the
// same pass over refGrowList, which walks every running app's executors with
// the rule in force before the engine listed only executors whose grow
// decision can have changed. Every executor's app, node, reservation and
// allocation must be bit-identical after every Schedule call. The runs cover
// MoE under a preempting NewPriority copy on a racked fleet whose rack
// storm drains (with migration) and fails nodes, Quasar, the Unified-ANN
// baseline (its inverse is a bisection), adaptive MoE under regime drift,
// and foreign co-runners whose completions free memory. A hand-built case
// checks that an executor spawned by hand grows at the next call, and that a
// charge-back lets an executor capped by its app's remaining work grow.
func TestGrowthPassMatchesFullWalk(t *testing.T) {
	model := moEModel(t, 5)
	poisson := func(t *testing.T, n int, ratePerHour float64, seed int64) []cluster.Submission {
		t.Helper()
		arrivals, err := workload.PoissonArrivals(n, ratePerHour/3600, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return cluster.Submissions(arrivals)
	}
	runs := []growthRun{
		{"moe-priority-storm", true, func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher) {
			r := rand.New(rand.NewSource(11))
			fleet, err := workload.BimodalFleet(64, workload.BigNode(), workload.LittleNode(), 0.5, r)
			if err != nil {
				t.Fatal(err)
			}
			if fleet, err = workload.AssignRacks(fleet, 8, 2); err != nil {
				t.Fatal(err)
			}
			specs := cluster.SpecsFrom(fleet)
			cfg := cluster.DefaultConfig()
			cfg.MigrateOnDrain = true
			c, err := cluster.NewHetero(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			storm, err := cluster.RackStormEvents(specs, 2, 2, 300, 1500, 60, 300, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.ScheduleNodeEvents(storm...); err != nil {
				t.Fatal(err)
			}
			return c, classedStream(t, 150, 300, 12), NewPriority(NewMoE(model, rand.New(rand.NewSource(13))), true)
		}},
		{"quasar", false, func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher) {
			return cluster.New(cluster.DefaultConfig()), poisson(t, 120, 300, 21),
				NewQuasar(quasarModel(t, 22), rand.New(rand.NewSource(23)))
		}},
		{"unified-ann", false, func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher) {
			ann, err := TrainUnifiedANN(workload.TrainingSet(), rand.New(rand.NewSource(31)))
			if err != nil {
				t.Fatal(err)
			}
			return cluster.New(cluster.DefaultConfig()), poisson(t, 60, 300, 32),
				NewUnifiedANN(ann, rand.New(rand.NewSource(33)))
		}},
		{"adaptive-moe", false, func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher) {
			arrivals, err := workload.RegimeArrivals(120, 90.0/3600, 10, -0.35, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatal(err)
			}
			return cluster.New(cluster.DefaultConfig()), cluster.Submissions(arrivals),
				NewAdaptiveMoE(model, rand.New(rand.NewSource(42)))
		}},
		{"foreign-co-runners", false, func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher) {
			cfg := cluster.DefaultConfig()
			cfg.Nodes = 8
			c := cluster.New(cfg)
			r := rand.New(rand.NewSource(51))
			for _, n := range c.Nodes() {
				if _, err := c.AddForeign(n.ID, "co-runner", 0.2, 0.6*n.AllocatableGB(), 200+800*r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			return c, poisson(t, 60, 600, 52), NewMoE(model, rand.New(rand.NewSource(53)))
		}},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			got, _ := replayGrowth(t, run.build, false)
			ref, res := replayGrowth(t, run.build, true)
			if diff := firstStateDiff(got, ref); diff != "" {
				t.Fatal(diff)
			}
			if run.storm && (res.FailKills == 0 || res.Migrations == 0 || res.PreemptKills == 0) {
				t.Fatalf("storm run: %d fail kills, %d migrations, %d preemptions; want each", res.FailKills, res.Migrations, res.PreemptKills)
			}
			if ref.grown == 0 {
				t.Fatal("the reference growth pass grew nothing: the run does not exercise the pass")
			}
			t.Logf("%d Schedule calls, %d grows", len(ref.states), ref.grown)
		})
	}

	t.Run("hand-built", func(t *testing.T) {
		got, ref := handBuiltCase(t, false), handBuiltCase(t, true)
		if diff := firstStateDiff(got, ref); diff != "" {
			t.Fatal(diff)
		}
		if ref.grown != 2 {
			t.Fatalf("the reference grew %d executors, want 2: one per Schedule call", ref.grown)
		}
	})
}

// replayGrowth runs a freshly built workload under a growth probe and
// returns the probe and the run's result.
func replayGrowth(t *testing.T, build func(t *testing.T) (*cluster.Cluster, []cluster.Submission, *Dispatcher), ref bool) (*growthProbe, *cluster.Result) {
	t.Helper()
	c, subs, d := build(t)
	p := &growthProbe{d: d, ref: ref}
	res, err := c.RunOpen(subs, p)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// handBuiltCase builds a two-node cluster and calls Schedule twice. Before
// the first call a solo app's executor is spawned by hand on node 1 with 10
// of its 40 GB fair share, and the first call widens it: only its arrival
// tells the growth pass. A batch app's executor on node 0 holds 10 of its 50
// GB fair share while the app has only 10.4 GB of work left, so no grow of
// it is worth the churn. A latency app then preempts the batch app's
// executor on node 1; the charge-back raises the batch app's remaining work
// to 50.4 GB, and the second call must widen its executor on node 0,
// although node 0 freed nothing.
func handBuiltCase(t *testing.T, ref bool) *growthProbe {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	c := cluster.New(cfg)
	est := staticEstimator{fn: memfunc.Func{Family: memfunc.LinearPower, M: 1, B: 0.2}}
	p := &growthProbe{d: &Dispatcher{PolicyName: "test", Est: est}, ref: ref}
	b, err := workload.Find("SP.Pca")
	if err != nil {
		t.Fatal(err)
	}
	batch := addReady(t, c, workload.Job{Bench: b, InputGB: 100})
	batch.Class, batch.MaxExecutors = testBatchClass, 2
	est.Prepare(batch)
	if _, err := c.Spawn(batch, c.Nodes()[0], 5, 10); err != nil {
		t.Fatal(err)
	}
	victim, err := c.Spawn(batch, c.Nodes()[1], 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	batch.RemainingGB = 10.4 //moevet:allow settledstate hand-built app that has processed most of its input
	solo := addReady(t, c, workload.Job{Bench: b, InputGB: 40})
	solo.MaxExecutors = 1
	est.Prepare(solo)
	if _, err := c.Spawn(solo, c.Nodes()[1], 5, 10); err != nil {
		t.Fatal(err)
	}
	// The latency app never waits for an executor of its own.
	latency := addReady(t, c, workload.Job{Bench: b, InputGB: 10})
	latency.Class, latency.MaxExecutors = testLatencyClass, 0
	p.Schedule(c)
	if err := c.Preempt(victim, latency); err != nil {
		t.Fatal(err)
	}
	if batch.RemainingGB != 50.4 {
		t.Fatalf("charge-back left %v GB of work, want 50.4", batch.RemainingGB)
	}
	p.Schedule(c)
	return p
}
