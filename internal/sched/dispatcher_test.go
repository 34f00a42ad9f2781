package sched

import (
	"math"
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/memfunc"
	"moespark/internal/workload"
)

// staticEstimator installs a fixed memory function for every app.
type staticEstimator struct {
	fn memfunc.Func
}

func (s staticEstimator) Prepare(app *cluster.App) cluster.ProfilePlan {
	app.Estimate = funcEstimate(s.fn)
	return cluster.ProfilePlan{}
}

func singleNodeCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cfg.MaxExecutorNodes = 4
	return cluster.New(cfg)
}

func TestPlanReservesPredictedFootprint(t *testing.T) {
	// A well-fitting prediction reserves footprint*(1+margin) and allocates
	// the full fair share.
	c := singleNodeCluster(t)
	d := &Dispatcher{
		PolicyName:   "test",
		Est:          staticEstimator{fn: memfunc.Func{Family: memfunc.LinearPower, M: 1, B: 0.2}},
		SafetyMargin: 0.05,
	}
	b, _ := workload.Find("SP.Pca")
	jobs := []workload.Job{{Bench: b, InputGB: 40}}
	res, err := c.Run(jobs, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].State != cluster.StateDone {
		t.Fatal("app unfinished")
	}
}

func TestPlanShrinksToFreeMemory(t *testing.T) {
	// When the fair share's predicted footprint exceeds free memory, the
	// plan shrinks the allocation instead of refusing outright.
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cfg.MaxExecutorNodes = 1
	c := cluster.New(cfg)
	// Predicted footprint 1 + 2*x: the 100GB share would need 201GB.
	d := &Dispatcher{
		PolicyName: "test",
		Est:        staticEstimator{fn: memfunc.Func{Family: memfunc.LinearPower, M: 1, B: 2}},
	}
	b, _ := workload.Find("HB.Scan") // true footprint small; only the plan is big
	probe := &spawnProbe{inner: d}
	jobs := []workload.Job{{Bench: b, InputGB: 100}}
	if _, err := c.Run(jobs, probe); err != nil {
		t.Fatal(err)
	}
	if probe.firstItems <= 0 || probe.firstItems >= 100 {
		t.Errorf("first allocation %v, want shrunk into (0, 100)", probe.firstItems)
	}
	alloc := cluster.ReferenceNode().AllocatableGB()
	if probe.firstReserve > alloc+1e-9 {
		t.Errorf("reserve %v exceeds allocatable %v", probe.firstReserve, alloc)
	}
}

// spawnProbe records the first executor spawn.
type spawnProbe struct {
	inner        cluster.Scheduler
	firstItems   float64
	firstReserve float64
	seen         bool
}

func (p *spawnProbe) Name() string { return p.inner.Name() }
func (p *spawnProbe) Prepare(c *cluster.Cluster, a *cluster.App) cluster.ProfilePlan {
	return p.inner.Prepare(c, a)
}
func (p *spawnProbe) Schedule(c *cluster.Cluster) {
	p.inner.Schedule(c)
	if p.seen {
		return
	}
	for _, n := range c.Nodes() {
		for _, e := range n.Executors {
			p.firstItems = e.ItemsGB
			p.firstReserve = e.ReservedGB
			p.seen = true
			return
		}
	}
}

func TestCheckCPUBlocksOversubscription(t *testing.T) {
	// With CheckCPU, aggregate demand on a node never exceeds 100%.
	moeModel := moEModel(t, 401)
	jobs := testJobs(t, "L8", 402)
	c := cluster.New(cluster.DefaultConfig())
	d := NewMoE(moeModel, rand.New(rand.NewSource(403)))
	probe := &cpuProbe{inner: d}
	if _, err := c.Run(jobs, probe); err != nil {
		t.Fatal(err)
	}
	if probe.maxDemand > 1.0+1e-9 {
		t.Errorf("max node CPU demand %v under CheckCPU", probe.maxDemand)
	}
}

type cpuProbe struct {
	inner     cluster.Scheduler
	maxDemand float64
}

func (p *cpuProbe) Name() string { return p.inner.Name() }
func (p *cpuProbe) Prepare(c *cluster.Cluster, a *cluster.App) cluster.ProfilePlan {
	return p.inner.Prepare(c, a)
}
func (p *cpuProbe) Schedule(c *cluster.Cluster) {
	p.inner.Schedule(c)
	for _, n := range c.Nodes() {
		if d := n.CPUDemand(); d > p.maxDemand {
			p.maxDemand = d
		}
	}
}

func TestFallbackReservationForUnestimatedApp(t *testing.T) {
	// An estimator that never installs an estimate must still run the app
	// with the default (half-node) reservation.
	c := singleNodeCluster(t)
	d := &Dispatcher{PolicyName: "test", Est: nilEstimator{}}
	b, _ := workload.Find("HB.Sort")
	jobs := []workload.Job{{Bench: b, InputGB: 20}}
	probe := &spawnProbe{inner: d}
	if _, err := c.Run(jobs, probe); err != nil {
		t.Fatal(err)
	}
	wantHalf := cluster.ReferenceNode().AllocatableGB() / 2
	if math.Abs(probe.firstReserve-wantHalf) > 1e-6 {
		t.Errorf("fallback reserve %v, want half-node %v", probe.firstReserve, wantHalf)
	}
}

type nilEstimator struct{}

func (nilEstimator) Prepare(*cluster.App) cluster.ProfilePlan { return cluster.ProfilePlan{} }

func TestStarvationFallbackOnEmptyNode(t *testing.T) {
	// An estimator claiming nothing ever fits must not starve the app: on an
	// empty node the dispatcher falls back to the default reservation.
	c := singleNodeCluster(t)
	d := &Dispatcher{
		PolicyName: "test",
		// Footprint is astronomically over-predicted: Items(budget) = 0.
		Est: staticEstimator{fn: memfunc.Func{Family: memfunc.LinearPower, M: 1000, B: 1000}},
	}
	b, _ := workload.Find("HB.Sort")
	jobs := []workload.Job{{Bench: b, InputGB: 20}}
	res, err := c.Run(jobs, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].State != cluster.StateDone {
		t.Error("over-predicting model starved the application")
	}
}

func TestIsolatedSerialOrdering(t *testing.T) {
	// Under the isolated baseline, application i never starts before
	// application i-1 finished.
	jobs := testJobs(t, "L4", 404)
	c := cluster.New(cluster.DefaultConfig())
	res, err := c.Run(jobs, NewIsolated())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Apps); i++ {
		prev, cur := res.Apps[i-1], res.Apps[i]
		if cur.StartTime+1e-6 < prev.DoneTime {
			t.Errorf("app %d started at %v before app %d finished at %v",
				cur.ID, cur.StartTime, prev.ID, prev.DoneTime)
		}
	}
}

func TestCalibSizesRespectCaps(t *testing.T) {
	s1, s2 := calibSizes(1000)
	if s1 != calibCap1 || s2 != calibCap2 {
		t.Errorf("large input caps: %v/%v", s1, s2)
	}
	s1, s2 = calibSizes(0.3)
	if math.Abs(s1-0.015) > 1e-12 || math.Abs(s2-0.03) > 1e-12 {
		t.Errorf("small input fractions: %v/%v", s1, s2)
	}
	s1, s2 = calibSizes(0)
	if s1 <= 0 || s2 <= s1 {
		t.Errorf("degenerate input: %v/%v", s1, s2)
	}
}

// TestGrowthPassSkipsAppsWithoutShrunkenExecutors runs the growth pass over
// a running app whose only executor holds its full fair share, and over one
// whose shrunken executor has no room to grow: neither may change. An app
// with a shrunken executor on a node with room has its executor grown.
func TestGrowthPassSkipsAppsWithoutShrunkenExecutors(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	c := cluster.New(cfg)
	est := staticEstimator{fn: memfunc.Func{Family: memfunc.LinearPower, M: 1, B: 0.2}}
	d := &Dispatcher{PolicyName: "test", Est: est}
	b, err := workload.Find("SP.Pca")
	if err != nil {
		t.Fatal(err)
	}
	// One executor slot per app, so no app is waiting and only the growth
	// pass can touch the executors.
	start := func(n *cluster.Node, reserveGB, itemsGB float64) *cluster.Executor {
		t.Helper()
		app := addReady(t, c, workload.Job{Bench: b, InputGB: 40})
		app.MaxExecutors = 1
		est.Prepare(app)
		e, err := c.Spawn(app, n, reserveGB, itemsGB)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	full := start(c.Nodes()[0], 5, 40)
	if full.ItemsGB < full.FairShareGB {
		t.Fatalf("full-share executor holds %v of a %v GB share", full.ItemsGB, full.FairShareGB)
	}
	boxedIn := start(c.Nodes()[1], c.Nodes()[1].AllocatableGB(), 10)
	d.Schedule(c)
	if full.ItemsGB != 40 || boxedIn.ItemsGB != 10 {
		t.Fatalf("growth pass over apps that cannot grow changed them: full %v (want 40), boxed in %v (want 10)",
			full.ItemsGB, boxedIn.ItemsGB)
	}
	shrunk := start(c.Nodes()[2], 5, 10)
	d.Schedule(c)
	if shrunk.ItemsGB <= 10 || full.ItemsGB != 40 || boxedIn.ItemsGB != 10 {
		t.Errorf("items after the growth pass: shrunken %v (want grown), full %v (want 40), boxed in %v (want 10)",
			shrunk.ItemsGB, full.ItemsGB, boxedIn.ItemsGB)
	}
}

// TestAdmitsRejectsAtEachBoundary drives each admission rule to its edge:
// the app count at MaxAppsPerNode, CPU demand one ulp past capacity + 1e-9,
// and free memory at MinChunkGB are rejected; one step inside each is
// admitted, and a rule that is off admits past its edge.
func TestAdmitsRejectsAtEachBoundary(t *testing.T) {
	// On a reference node free memory cannot land exactly on MinChunkGB in
	// floating point; on a node this small it can.
	ref := cluster.ReferenceNode()
	tiny := ref
	tiny.RAMGB, tiny.OSReserveGB = 0.1, 0
	c, err := cluster.NewHetero(cluster.DefaultConfig(), []cluster.NodeSpec{ref, ref, tiny, tiny})
	if err != nil {
		t.Fatal(err)
	}
	idle, busy, tight, roomy := c.Nodes()[0], c.Nodes()[1], c.Nodes()[2], c.Nodes()[3]
	spawn := func(n *cluster.Node, reserveGB float64) {
		t.Helper()
		app := addReady(t, c, workload.Job{Bench: testBench(t), InputGB: 10})
		if _, err := c.Spawn(app, n, reserveGB, 10); err != nil {
			t.Fatal(err)
		}
	}
	spawn(busy, 1)
	spawn(busy, 1)
	edge := tight.AllocatableGB() - cluster.MinChunkGB
	spawn(tight, edge)
	spawn(roomy, math.Nextafter(edge, 0))
	if tight.FreeGB() != cluster.MinChunkGB || !(roomy.FreeGB() > cluster.MinChunkGB) {
		t.Fatalf("setup: free %v and %v GB, want exactly and just above %v", tight.FreeGB(), roomy.FreeGB(), cluster.MinChunkGB)
	}
	cpuEdge := idle.CPUCapacity() + 1e-9
	pastCPU := math.Nextafter(cpuEdge, math.Inf(1))
	cases := []struct {
		name   string
		d      Dispatcher
		n      *cluster.Node
		demand float64
		want   bool
	}{
		{"app count below cap", Dispatcher{MaxAppsPerNode: 3}, busy, 0, true},
		{"app count at cap", Dispatcher{MaxAppsPerNode: 2}, busy, 0, false},
		{"app count uncapped", Dispatcher{}, busy, 0, true},
		{"CPU demand at capacity+1e-9", Dispatcher{CheckCPU: true}, idle, cpuEdge, true},
		{"CPU demand past capacity+1e-9", Dispatcher{CheckCPU: true}, idle, pastCPU, false},
		{"CPU rule off", Dispatcher{}, idle, pastCPU, true},
		{"free memory at MinChunkGB", Dispatcher{}, tight, 0, false},
		{"free memory above MinChunkGB", Dispatcher{}, roomy, 0, true},
	}
	for _, tc := range cases {
		if got := tc.d.admits(tc.n, tc.demand); got != tc.want {
			t.Errorf("%s: admits = %v, want %v", tc.name, got, tc.want)
		}
	}
}
