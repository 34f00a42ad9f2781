package cluster

import (
	"errors"
	"math"
	"testing"

	"moespark/internal/workload"
)

// testBench returns a benchmark handle for tests.
func testBench(t *testing.T, name string) *workload.Benchmark {
	t.Helper()
	b, err := workload.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fullSpeedScheduler gives the FCFS head whole nodes, like the isolated
// baseline, but concurrently for every app. Schedule runs on every engine
// event, so it reuses a waiting buffer (the same AppendWaitingApps idiom the
// production dispatchers use) instead of allocating a fresh waiting set per
// call — the engine benchmarks drive it thousands of times per run.
type fullSpeedScheduler struct {
	waitBuf  []*App
	emptyBuf []*Node
}

func (*fullSpeedScheduler) Name() string                       { return "test-full" }
func (*fullSpeedScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s *fullSpeedScheduler) Schedule(c *Cluster) {
	s.waitBuf = c.AppendWaitingApps(s.waitBuf[:0])
	if len(s.waitBuf) == 0 {
		return
	}
	// Candidate nodes can only fill up during this call (Spawn adds, nothing
	// removes), so the empty-and-available set is collected once, in node
	// order, and rechecked for emptiness per placement: the walk below makes
	// exactly the placements the full per-app node scan made.
	s.emptyBuf = s.emptyBuf[:0]
	for _, n := range c.Nodes() {
		if n.Available() && len(n.Executors) == 0 {
			s.emptyBuf = append(s.emptyBuf, n)
		}
	}
	for _, app := range s.waitBuf {
		for _, n := range s.emptyBuf {
			if len(app.Executors) >= app.MaxExecutors {
				break
			}
			if len(n.Executors) > 0 || app.ExecutorOn(n) {
				continue
			}
			share := app.RemainingGB / float64(app.MaxExecutors-len(app.Executors))
			if _, err := c.Spawn(app, n, n.FreeGB(), share); err != nil {
				break
			}
		}
	}
}

func TestConfigNodesFor(t *testing.T) {
	cases := []struct {
		gb, spread float64
		want       int
	}{
		{0.3, 16, 1}, {16, 16, 1}, {17, 16, 2}, {30, 16, 2}, {1000, 16, 40}, {0, 16, 1},
		// A fractional input rounds up: ceil(16.5/16) and ceil(1/0.5) are 2.
		{16.5, 16, 2}, {1, 0.5, 2},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.ExecutorSpreadGB = c.spread
		if got := cfg.NodesFor(c.gb); got != c.want {
			t.Errorf("NodesFor(%v) with %v GB per executor = %d, want %d", c.gb, c.spread, got, c.want)
		}
	}
}

// TestNewHeteroValidatesConfig checks that NewHetero rejects every Config
// setting no run can use, NaN and infinities included, accepts the boundary
// values, and that New panics on the same settings.
func TestNewHeteroValidatesConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*Config)
		bad  bool
	}{
		{"default", func(*Config) {}, false},
		{"zero spread", func(c *Config) { c.ExecutorSpreadGB = 0 }, true},
		{"negative spread", func(c *Config) { c.ExecutorSpreadGB = -16 }, true},
		{"NaN spread", func(c *Config) { c.ExecutorSpreadGB = nan }, true},
		{"infinite spread", func(c *Config) { c.ExecutorSpreadGB = inf }, true},
		{"one executor node", func(c *Config) { c.MaxExecutorNodes = 1 }, false},
		{"zero executor nodes", func(c *Config) { c.MaxExecutorNodes = 0 }, true},
		{"negative executor nodes", func(c *Config) { c.MaxExecutorNodes = -1 }, true},
		{"positive trace interval", func(c *Config) { c.TraceInterval = 30 }, false},
		{"negative trace interval", func(c *Config) { c.TraceInterval = -1 }, true},
		{"NaN trace interval", func(c *Config) { c.TraceInterval = nan }, true},
		{"infinite trace interval", func(c *Config) { c.TraceInterval = inf }, true},
		{"retry budget", func(c *Config) { c.OOMRetryBudget = 2 }, false},
		{"negative retry budget", func(c *Config) { c.OOMRetryBudget = -1 }, true},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if _, err := NewHetero(cfg, []NodeSpec{ReferenceNode()}); (err != nil) != tc.bad {
			t.Errorf("%s: NewHetero error %v, want error %v", tc.name, err, tc.bad)
		}
		if !tc.bad {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", tc.name)
				}
			}()
			New(cfg)
		}()
	}
}

// TestConfigAllocatable pins the reference node's memory layout: 60 of its
// 64 GB are usable, and the 0.92 pressure watermark leaves 55.2 GB for
// reservations on every node of a default cluster.
func TestConfigAllocatable(t *testing.T) {
	ref := ReferenceNode()
	if ref.UsableGB() != 60 {
		t.Errorf("UsableGB = %v, want 60", ref.UsableGB())
	}
	want := 0.92 * 60
	if math.Abs(ref.AllocatableGB()-want) > 1e-9 {
		t.Errorf("AllocatableGB = %v, want %v", ref.AllocatableGB(), want)
	}
	for _, n := range New(DefaultConfig()).Nodes() {
		if n.AllocatableGB() != ref.AllocatableGB() {
			t.Fatalf("node %d advertises %v GB, want the reference node's %v", n.ID, n.AllocatableGB(), ref.AllocatableGB())
		}
	}
}

func TestSingleAppMatchesIsolatedTime(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	job := workload.Job{Bench: testBench(t, "HB.Sort"), InputGB: 30}
	res, err := c.Run([]workload.Job{job}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	want := c.IsolatedTime(job)
	got := res.Apps[0].Turnaround()
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("turnaround %v, isolated closed form %v", got, want)
	}
}

func TestRunRejectsEmpty(t *testing.T) {
	c := New(DefaultConfig())
	if _, err := c.Run(nil, &fullSpeedScheduler{}); err == nil {
		t.Fatal("empty run must error")
	}
}

func TestSpawnValidation(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	b := testBench(t, "HB.Sort")
	app := &App{
		ID: 0, Job: workload.Job{Bench: b, InputGB: 100},
		RemainingGB: 100, MaxExecutors: 2, State: StateReady,
		ReadyTime: -1, StartTime: -1, DoneTime: -1,
	}
	n0, n1 := c.Nodes()[0], c.Nodes()[1]

	// NaN or negative sizes: every range check is false for NaN, and a
	// negative reservation would credit the node memory it never had.
	for _, sz := range [][2]float64{{math.NaN(), 10}, {-5, 10}, {10, math.NaN()}, {10, -5}} {
		if _, err := c.Spawn(app, n0, sz[0], sz[1]); err == nil {
			t.Errorf("spawn reserve %v items %v: no error", sz[0], sz[1])
		}
		if n0.ReservedGB() != 0 || n0.FreeGB() != n0.AllocatableGB() || len(n0.Executors) != 0 {
			t.Fatalf("spawn reserve %v items %v: node reserved %v free %v, want 0 and %v",
				sz[0], sz[1], n0.ReservedGB(), n0.FreeGB(), n0.AllocatableGB())
		}
	}
	// Over-reservation.
	if _, err := c.Spawn(app, n0, n0.AllocatableGB()+5, 10); !errors.Is(err, ErrNoFreeMemory) {
		t.Errorf("over-reserve: %v", err)
	}
	// Chunk too small.
	if _, err := c.Spawn(app, n0, 10, 0.001); !errors.Is(err, ErrChunkTooSmall) {
		t.Errorf("tiny chunk: %v", err)
	}
	// Good spawn.
	e, err := c.Spawn(app, n0, 10, 50)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if e.NeedGB != b.Footprint(50) {
		t.Errorf("need %v, want ground truth %v", e.NeedGB, b.Footprint(50))
	}
	if e.ActualGB > 10*(1+offHeapFrac)+1e-9 {
		t.Errorf("resident %v exceeds heap cap", e.ActualGB)
	}
	if app.State != StateRunning {
		t.Errorf("app state %v after first spawn", app.State)
	}
	// Same node twice.
	if _, err := c.Spawn(app, n0, 10, 50); !errors.Is(err, ErrAlreadyOnNode) {
		t.Errorf("dup node: %v", err)
	}
	// Cap.
	if _, err := c.Spawn(app, n1, 10, 50); err != nil {
		t.Fatalf("second spawn: %v", err)
	}
	if _, err := c.Spawn(app, c.Nodes()[2], 10, 50); !errors.Is(err, ErrExecutorCap) {
		t.Errorf("cap: %v", err)
	}
}

func TestSpawnRejectsWrongState(t *testing.T) {
	c := New(DefaultConfig())
	b := testBench(t, "HB.Sort")
	app := &App{Job: workload.Job{Bench: b, InputGB: 10}, RemainingGB: 10, MaxExecutors: 1, State: StateQueued}
	if _, err := c.Spawn(app, c.Nodes()[0], 5, 5); !errors.Is(err, ErrAppNotSchedulable) {
		t.Errorf("queued spawn: %v", err)
	}
	app.State = StateReady
	//moevet:allow settledstate hand-built app with no engine run; probing Spawn's no-work rejection
	app.RemainingGB = 0
	if _, err := c.Spawn(app, c.Nodes()[0], 5, 5); !errors.Is(err, ErrAppNotSchedulable) {
		t.Errorf("no-work spawn: %v", err)
	}
}

// oversubscribeScheduler packs two executors with understated reservations
// onto one node to trigger paging/OOM paths.
type oversubscribeScheduler struct {
	reserve float64
}

func (oversubscribeScheduler) Name() string                       { return "test-oversub" }
func (oversubscribeScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s oversubscribeScheduler) Schedule(c *Cluster) {
	for _, app := range c.WaitingApps() {
		for _, n := range c.Nodes() {
			if app.ExecutorOn(n) || app.BlockedOn(n, c.Now()) {
				continue
			}
			if _, err := c.Spawn(app, n, s.reserve, app.RemainingGB); err == nil {
				break
			}
		}
	}
}

func TestHeapPressureSlowsUnderProvisionedExecutor(t *testing.T) {
	// One app, reservation far below its true footprint: the run must take
	// markedly longer than the isolated time.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.MaxExecutorNodes = 1
	c := New(cfg)
	b := testBench(t, "HB.PageRank") // footprint(30) ~ 22GB
	job := workload.Job{Bench: b, InputGB: 30}
	res, err := c.Run([]workload.Job{job}, oversubscribeScheduler{reserve: 5})
	if err != nil {
		t.Fatal(err)
	}
	iso := 30/b.ScanRate + startupSec
	if res.Apps[0].Turnaround() < 2*iso {
		t.Errorf("under-provisioned run %.0fs, want >= 2x the full-heap time %.0fs",
			res.Apps[0].Turnaround(), iso)
	}
}

func TestOOMKillAndBlacklist(t *testing.T) {
	// Admission control plus JVM heap caps mean well-formed schedules never
	// reach RAM+swap (matching the paper's "OOM was not observed"), so the
	// OOM path is exercised white-box: pin oversized foreign memory onto a
	// node that already hosts an executor and recompute rates.
	cfg := DefaultConfig()
	c := New(cfg)
	b := testBench(t, "BDB.PageRank")
	app := &App{
		ID: 0, Job: workload.Job{Bench: b, InputGB: 60},
		RemainingGB: 60, MaxExecutors: 1, State: StateReady,
		ReadyTime: 0, StartTime: -1, DoneTime: -1,
	}
	n := c.Nodes()[0]
	if _, err := c.Spawn(app, n, 10, 60); err != nil {
		t.Fatal(err)
	}
	// Pin 70GB of untracked foreign memory: actual exceeds RAM+swap.
	hog := &ForeignTask{Name: "hog", Node: n, CPULoad: 0.05, MemoryGB: 70, WorkSec: 10, remaining: 10, DoneTime: -1}
	n.Foreign = append(n.Foreign, hog)
	n.recount()
	c.foreign = append(c.foreign, hog)

	c.recomputeRates()
	if c.totalOOM != 1 {
		t.Fatalf("OOM kills = %d, want 1", c.totalOOM)
	}
	if len(app.Executors) != 0 {
		t.Error("victim executor not removed")
	}
	if !app.BlockedOn(n, c.Now()) {
		t.Error("app not blacklisted on the OOM node")
	}
	if app.State != StateReady {
		t.Errorf("app state %v, want ready for re-run", app.State)
	}
	if app.RemainingGB <= 60-1e-9 {
		t.Errorf("remaining %.2f, want reprocessing charge added", app.RemainingGB)
	}
	// An empty blacklisted node is usable again (isolation re-run).
	for i, x := range n.Foreign {
		_ = i
		//moevet:allow settledstate forcing co-runner completion without an engine to test blacklisted-node reuse
		x.done = true
	}
	n.Foreign = nil
	n.recount()
	if _, err := c.Spawn(app, n, 10, 60); err != nil {
		t.Errorf("isolation re-run on empty blacklisted node should work: %v", err)
	}
}

// TestAppCanUse pins the node-eligibility rule that placement, migration and
// preemption share, and checks that Spawn, which tests the same conditions
// one at a time, accepts exactly the nodes the rule accepts.
func TestAppCanUse(t *testing.T) {
	b := testBench(t, "HB.Sort")
	newApp := func(id int) *App {
		return &App{
			ID: id, Job: workload.Job{Bench: b, InputGB: 100},
			RemainingGB: 100, MaxExecutors: 4, State: StateReady,
			ReadyTime: 0, StartTime: -1, DoneTime: -1,
		}
	}
	// share puts another app's executor on n.
	share := func(t *testing.T, c *Cluster, n *Node) {
		t.Helper()
		if _, err := c.Spawn(newApp(1), n, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, c *Cluster, app *App, n *Node)
		want  bool
	}{
		{"empty node", func(*testing.T, *Cluster, *App, *Node) {}, true},
		{"draining node", func(_ *testing.T, _ *Cluster, _ *App, n *Node) { n.state = NodeDraining }, false},
		{"failed node", func(_ *testing.T, _ *Cluster, _ *App, n *Node) { n.state = NodeFailed }, false},
		{"node hosts the app", func(t *testing.T, c *Cluster, app *App, n *Node) {
			if _, err := c.Spawn(app, n, 1, 1); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"node hosts another app", func(t *testing.T, c *Cluster, _ *App, n *Node) { share(t, c, n) }, true},
		{"blacklisted shared node", func(t *testing.T, c *Cluster, app *App, n *Node) {
			app.blockNode(n, permanentBlock)
			share(t, c, n)
		}, false},
		{"blacklisted empty node", func(_ *testing.T, _ *Cluster, app *App, n *Node) { app.blockNode(n, permanentBlock) }, true},
		{"cooling-off shared node", func(t *testing.T, c *Cluster, app *App, n *Node) {
			app.blockNode(n, c.Now()+1)
			share(t, c, n)
		}, false},
		{"lapsed entry on shared node", func(t *testing.T, c *Cluster, app *App, n *Node) {
			app.blockNode(n, c.Now())
			share(t, c, n)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(DefaultConfig())
			app, n := newApp(0), c.Nodes()[0]
			tc.setup(t, c, app, n)
			if got := app.CanUse(n, c.Now()); got != tc.want {
				t.Errorf("CanUse = %v, want %v", got, tc.want)
			}
			if _, err := c.Spawn(app, n, 1, 1); (err == nil) != tc.want {
				t.Errorf("Spawn error %v, want accepted %v", err, tc.want)
			}
		})
	}
}

func TestProfilingPlanValidation(t *testing.T) {
	c := New(DefaultConfig())
	jobs := []workload.Job{{Bench: testBench(t, "HB.Sort"), InputGB: 10}}
	bad := &planScheduler{plan: ProfilePlan{VolumeGB: -1}}
	if _, err := c.Run(jobs, bad); err == nil {
		t.Fatal("negative profiling volume must error")
	}
	c2 := New(DefaultConfig())
	bad2 := &planScheduler{plan: ProfilePlan{VolumeGB: 1, ContributesGB: 2}}
	if _, err := c2.Run(jobs, bad2); err == nil {
		t.Fatal("contribution above volume must error")
	}
}

type planScheduler struct {
	plan ProfilePlan
	full fullSpeedScheduler
}

func (*planScheduler) Name() string                         { return "test-plan" }
func (p *planScheduler) Prepare(*Cluster, *App) ProfilePlan { return p.plan }
func (p *planScheduler) Schedule(c *Cluster)                { p.full.Schedule(c) }

func TestProfilingContributionCapped(t *testing.T) {
	// Contribution is capped at the input size: the app finishes during
	// profiling with no executors.
	c := New(DefaultConfig())
	jobs := []workload.Job{{Bench: testBench(t, "HB.Sort"), InputGB: 0.2}}
	res, err := c.Run(jobs, &planScheduler{plan: ContributingProfile(5)})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Apps[0]
	if a.State != StateDone || a.StartTime >= 0 {
		t.Errorf("app should finish during profiling: state=%v start=%v", a.State, a.StartTime)
	}
	if a.DoneTime <= 0 {
		t.Error("profiling must take time")
	}
}

func TestStallDetection(t *testing.T) {
	// A scheduler that never spawns anything must be reported as stalled.
	c := New(DefaultConfig())
	jobs := []workload.Job{{Bench: testBench(t, "HB.Sort"), InputGB: 10}}
	_, err := c.Run(jobs, &planScheduler{plan: ProfilePlan{}})
	_ = err // planScheduler delegates to fullSpeed; use a no-op instead
	c2 := New(DefaultConfig())
	if _, err := c2.Run(jobs, noopScheduler{}); err == nil {
		t.Fatal("expected stall error")
	}
}

type noopScheduler struct{}

func (noopScheduler) Name() string                       { return "noop" }
func (noopScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (noopScheduler) Schedule(*Cluster)                  {}

func TestForeignTaskRunsAndInterferes(t *testing.T) {
	// A CPU-heavy foreign task plus a Spark executor on the same node: both
	// finish, the foreign task slower than its isolated runtime.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.MaxExecutorNodes = 1
	c := New(cfg)
	ft, err := c.AddForeign(0, "Swaptions", 0.95, 0.5, 800)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []workload.Job{{Bench: testBench(t, "HB.Kmeans"), InputGB: 30}}
	res, err := c.Run(jobs, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Done() {
		t.Fatal("foreign task did not finish")
	}
	slowdown := ft.DoneTime/ft.WorkSec - 1
	if slowdown <= 0 {
		t.Errorf("foreign slowdown %v, want positive (CPU contention)", slowdown)
	}
	if slowdown > 0.6 {
		t.Errorf("foreign slowdown %v unreasonably large", slowdown)
	}
	if res.Apps[0].State != StateDone {
		t.Error("spark app did not finish")
	}
}

func TestForeignAloneFinishesOnTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	ft, err := c.AddForeign(0, "Vips", 0.8, 1.1, 950)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil, noopScheduler{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ft.DoneTime-950) > 1 {
		t.Errorf("isolated foreign task took %v, want ~950", ft.DoneTime)
	}
	if _, err := c.AddForeign(99, "X", 1, 1, 1); err == nil {
		t.Error("out-of-range node must error")
	}
}

func TestAddForeignRejectsInvalidArguments(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name              string
		cpu, memGB, workS float64
	}{
		{"negative memory", 0.5, -10, 100},
		{"NaN memory", 0.5, nan, 100},
		{"infinite memory", 0.5, inf, 100},
		{"negative CPU load", -0.5, 10, 100},
		{"NaN CPU load", nan, 10, 100},
		{"infinite CPU load", inf, 10, 100},
		{"zero work", 0.5, 10, 0},
		{"negative work", 0.5, 10, -100},
		{"NaN work", 0.5, 10, nan},
		{"infinite work", 0.5, 10, inf},
	}
	for _, tc := range cases {
		// The error must come before the node is touched: a negative working
		// set used to credit the node free memory, a NaN one to make it NaN,
		// and a NaN load or work to stall the run.
		c := New(DefaultConfig())
		n := c.Nodes()[0]
		free := n.FreeGB()
		if f, err := c.AddForeign(0, "x", tc.cpu, tc.memGB, tc.workS); err == nil || f != nil {
			t.Errorf("%s: got task %v, error %v; want an error", tc.name, f, err)
		}
		if n.FreeGB() != free || len(n.Foreign) != 0 || len(c.foreign) != 0 {
			t.Errorf("%s: rejected task touched node 0 (free %v GB, was %v)", tc.name, n.FreeGB(), free)
		}
	}
	// An idle guest with no working set is valid.
	if _, err := New(DefaultConfig()).AddForeign(0, "idle", 0, 0, 1); err != nil {
		t.Errorf("zero CPU load and memory rejected: %v", err)
	}
}

func TestTraceSamplesUtilization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceInterval = 30
	c := New(cfg)
	jobs := []workload.Job{
		{Bench: testBench(t, "HB.Sort"), InputGB: 64},
		{Bench: testBench(t, "HB.Kmeans"), InputGB: 64},
	}
	res, err := c.Run(jobs, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil || len(tr.Times) < 3 {
		t.Fatalf("expected trace samples, got %+v", tr)
	}
	if len(tr.CPU[0]) != cfg.Nodes {
		t.Errorf("trace row width %d, want %d", len(tr.CPU[0]), cfg.Nodes)
	}
	if tr.MeanUtilization() <= 0 {
		t.Error("mean utilization should be positive")
	}
	for _, row := range tr.CPU {
		for _, u := range row {
			if u < 0 || u > 1 {
				t.Fatalf("utilization %v out of range", u)
			}
		}
	}
}

func TestAppStateString(t *testing.T) {
	states := []AppState{StateQueued, StateProfiling, StateReady, StateRunning, StateDone, AppState(99)}
	for _, s := range states {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	mkJobs := func() []workload.Job {
		return []workload.Job{
			{Bench: testBench(t, "HB.Sort"), InputGB: 100},
			{Bench: testBench(t, "HB.Kmeans"), InputGB: 30},
			{Bench: testBench(t, "BDB.Grep"), InputGB: 300},
		}
	}
	run := func() *Result {
		c := New(DefaultConfig())
		res, err := c.Run(mkJobs(), &fullSpeedScheduler{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MakespanSec != b.MakespanSec {
		t.Errorf("non-deterministic makespan: %v vs %v", a.MakespanSec, b.MakespanSec)
	}
	for i := range a.Apps {
		if a.Apps[i].DoneTime != b.Apps[i].DoneTime {
			t.Errorf("non-deterministic completion for app %d", i)
		}
	}
}
