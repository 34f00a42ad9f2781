package cluster

import (
	"math"
	"strings"
	"testing"

	"moespark/internal/workload"
)

// prepTimeScheduler records the simulation time at which Prepare fires for
// each app, then schedules greedily.
type prepTimeScheduler struct {
	prepAt map[int]float64
	plan   ProfilePlan
	full   fullSpeedScheduler
}

func (s *prepTimeScheduler) Name() string { return "test-preptime" }
func (s *prepTimeScheduler) Prepare(c *Cluster, app *App) ProfilePlan {
	if s.prepAt == nil {
		s.prepAt = map[int]float64{}
	}
	s.prepAt[app.ID] = c.Now()
	return s.plan
}
func (s *prepTimeScheduler) Schedule(c *Cluster) { s.full.Schedule(c) }

func openJobs(t *testing.T) (workload.Job, workload.Job) {
	t.Helper()
	return workload.Job{Bench: testBench(t, "HB.Sort"), InputGB: 30},
		workload.Job{Bench: testBench(t, "HB.Kmeans"), InputGB: 30}
}

func TestRunOpenPrepareFiresAtArrival(t *testing.T) {
	j1, j2 := openJobs(t)
	s := &prepTimeScheduler{}
	c := New(DefaultConfig())
	res, err := c.RunOpen([]Submission{{At: 0, Job: j1}, {At: 500, Job: j2}}, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.prepAt[0]; got != 0 {
		t.Errorf("app 0 prepared at t=%v, want 0", got)
	}
	if got := s.prepAt[1]; math.Abs(got-500) > 1e-6 {
		t.Errorf("app 1 prepared at t=%v, want its arrival time 500", got)
	}
	if res.Apps[1].SubmitTime != 500 {
		t.Errorf("app 1 SubmitTime %v, want 500", res.Apps[1].SubmitTime)
	}
	if res.Apps[1].StartTime < 500 {
		t.Errorf("app 1 started at %v, before its submission", res.Apps[1].StartTime)
	}
	if res.Apps[1].DoneTime <= res.Apps[1].SubmitTime {
		t.Errorf("app 1 not finished after submission: done=%v", res.Apps[1].DoneTime)
	}
	if w := res.Apps[1].WaitSec(); w < 0 {
		t.Errorf("app 1 wait %v, want >= 0", w)
	}
}

func TestRunOpenIdlesBetweenArrivals(t *testing.T) {
	// A gap much longer than the first job's runtime: the engine must coast
	// through the idle period to the second arrival instead of stalling.
	j1, j2 := openJobs(t)
	c := New(DefaultConfig())
	res, err := c.RunOpen([]Submission{{At: 0, Job: j1}, {At: 10_000, Job: j2}}, &prepTimeScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].DoneTime >= 10_000 {
		t.Errorf("first app done at %v, expected well before the second arrival", res.Apps[0].DoneTime)
	}
	if res.MakespanSec <= 10_000 {
		t.Errorf("makespan %v, want past the second arrival", res.MakespanSec)
	}
}

func TestRunOpenSortsSubmissions(t *testing.T) {
	// Out-of-order submissions are admitted in time order, and FCFS ids
	// follow arrival order.
	j1, j2 := openJobs(t)
	c := New(DefaultConfig())
	res, err := c.RunOpen([]Submission{{At: 300, Job: j1}, {At: 0, Job: j2}}, &prepTimeScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].Job.Bench != j2.Bench || res.Apps[0].SubmitTime != 0 {
		t.Errorf("app 0 should be the t=0 submission, got %v at %v", res.Apps[0].Job, res.Apps[0].SubmitTime)
	}
	if res.Apps[1].SubmitTime != 300 {
		t.Errorf("app 1 SubmitTime %v, want 300", res.Apps[1].SubmitTime)
	}
}

func TestRunOpenRejectsInvalidTimes(t *testing.T) {
	j1, j2 := openJobs(t)
	withInput := func(gb float64) workload.Job { j := j2; j.InputGB = gb; return j }
	cases := []struct {
		name string
		sub  Submission
	}{
		{"negative time", Submission{At: -1, Job: j2}},
		{"infinite time", Submission{At: math.Inf(1), Job: j2}},
		{"NaN time", Submission{At: math.NaN(), Job: j2}},
		{"no benchmark", Submission{At: 10, Job: workload.Job{InputGB: 30}}},
		{"infinite input", Submission{At: 10, Job: withInput(math.Inf(1))}},
		{"NaN input", Submission{At: 10, Job: withInput(math.NaN())}},
		{"negative input", Submission{At: 10, Job: withInput(-5)}},
		{"zero input", Submission{At: 10, Job: withInput(0)}},
		{"NaN class weight", Submission{At: 10, Job: j2, Class: workload.Class{Name: "x", Weight: math.NaN()}}},
		{"infinite class weight", Submission{At: 10, Job: j2, Class: workload.Class{Name: "x", Weight: math.Inf(1)}}},
		{"negative class weight", Submission{At: 10, Job: j2, Class: workload.Class{Name: "x", Weight: -1}}},
	}
	for _, tc := range cases {
		// The bad submission follows a good one: the error must come from
		// the check and name it, not from a stall or a panic mid-run.
		c := New(DefaultConfig())
		_, err := c.RunOpen([]Submission{{At: 0, Job: j1}, tc.sub}, &prepTimeScheduler{})
		if err == nil || !strings.Contains(err.Error(), "submission 1:") {
			t.Errorf("%s: got error %v, want one naming submission 1", tc.name, err)
		}
	}
	c := New(DefaultConfig())
	if _, err := c.RunOpen(nil, &prepTimeScheduler{}); err == nil {
		t.Error("empty open run must error")
	}
	// A nil scheduler is an error before any state is touched, through Run
	// too; it used to panic at the first Prepare.
	if _, err := c.RunOpen([]Submission{{At: 0, Job: j1}}, nil); err == nil || len(c.Apps()) != 0 {
		t.Errorf("RunOpen with a nil scheduler: error %v, %d apps admitted; want an error and none", err, len(c.Apps()))
	}
	if _, err := c.Run([]workload.Job{j1}, nil); err == nil || len(c.Apps()) != 0 {
		t.Errorf("Run with a nil scheduler: error %v, %d apps admitted; want an error and none", err, len(c.Apps()))
	}
}

// TestAddReadyAppRejectsInvalidJobs checks that AddReadyApp applies
// RunOpen's job checks: a bad job is an error naming the fault, and nothing
// is registered.
func TestAddReadyAppRejectsInvalidJobs(t *testing.T) {
	j1, _ := openJobs(t)
	withInput := func(gb float64) workload.Job { j := j1; j.InputGB = gb; return j }
	cases := []struct {
		name string
		job  workload.Job
		want string
	}{
		{"no benchmark", workload.Job{InputGB: 30}, "no benchmark"},
		{"infinite input", withInput(math.Inf(1)), "invalid input"},
		{"NaN input", withInput(math.NaN()), "invalid input"},
		{"negative input", withInput(-5), "invalid input"},
		{"zero input", withInput(0), "invalid input"},
	}
	for _, tc := range cases {
		c := New(DefaultConfig())
		a, err := c.AddReadyApp(tc.job)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
		if a != nil || len(c.Apps()) != 0 {
			t.Errorf("%s: app %v returned, %d registered; want none", tc.name, a, len(c.Apps()))
		}
	}
	if _, err := New(DefaultConfig()).AddReadyApp(j1); err != nil {
		t.Errorf("valid job: %v", err)
	}
}

func TestRunOpenProfilingDelayedToArrival(t *testing.T) {
	// With a profiling plan, the app's ReadyTime must trail its arrival by
	// the profiling duration, not start from t=0.
	j1, _ := openJobs(t)
	s := &prepTimeScheduler{plan: ContributingProfile(1)}
	c := New(DefaultConfig())
	res, err := c.RunOpen([]Submission{{At: 200, Job: j1}}, s)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Apps[0]
	if a.ReadyTime <= 200 {
		t.Errorf("ready at %v, want after the 200s arrival plus profiling", a.ReadyTime)
	}
	if a.WaitSec() <= 0 {
		t.Errorf("wait %v, want positive (profiling counts as waiting)", a.WaitSec())
	}
}

// batchSizeScheduler records how many apps were registered when each
// Prepare fired.
type batchSizeScheduler struct {
	sizes []int
	full  fullSpeedScheduler
}

func (s *batchSizeScheduler) Name() string { return "test-batchsize" }
func (s *batchSizeScheduler) Prepare(c *Cluster, _ *App) ProfilePlan {
	s.sizes = append(s.sizes, len(c.Apps()))
	return ProfilePlan{}
}
func (s *batchSizeScheduler) Schedule(c *Cluster) { s.full.Schedule(c) }

func TestPrepareSeesWholeSimultaneousBatch(t *testing.T) {
	// Pre-refactor closed-batch semantics: every app of a batch is
	// registered before any Prepare fires, so a policy can size its plans
	// from the whole batch.
	j1, j2 := openJobs(t)
	s := &batchSizeScheduler{}
	c := New(DefaultConfig())
	if _, err := c.Run([]workload.Job{j1, j2, j1}, s); err != nil {
		t.Fatal(err)
	}
	if len(s.sizes) != 3 {
		t.Fatalf("Prepare fired %d times, want 3", len(s.sizes))
	}
	for i, n := range s.sizes {
		if n != 3 {
			t.Errorf("Prepare %d saw %d apps, want the whole batch of 3", i, n)
		}
	}
}

func TestStartTimeSurvivesRespawn(t *testing.T) {
	// An OOM respawn sends the app back through StateReady; its recorded
	// execution start (which feeds WaitSec) must not be rewritten.
	j1, _ := openJobs(t)
	c := New(DefaultConfig())
	app := &App{
		ID: 0, Job: j1, RemainingGB: j1.InputGB, MaxExecutors: 2,
		State: StateReady, SubmitTime: 0, ReadyTime: 0, StartTime: -1, DoneTime: -1,
	}
	c.apps = []*App{app}
	c.now = 500
	if _, err := c.Spawn(app, c.Nodes()[0], 10, 10); err != nil {
		t.Fatal(err)
	}
	if app.StartTime != 500 {
		t.Fatalf("first spawn StartTime %v, want 500", app.StartTime)
	}
	// Simulate the OOM path: executor gone, app back to ready, later respawn.
	c.removeExecutor(app.Executors[0])
	app.State = StateReady
	c.now = 2000
	if _, err := c.Spawn(app, c.Nodes()[1], 10, 10); err != nil {
		t.Fatal(err)
	}
	if app.StartTime != 500 {
		t.Errorf("respawn rewrote StartTime to %v, want original 500", app.StartTime)
	}
	if app.WaitSec() != 500 {
		t.Errorf("WaitSec %v, want 500", app.WaitSec())
	}
}

func TestSubmissionsFromArrivals(t *testing.T) {
	j1, j2 := openJobs(t)
	subs := Submissions([]workload.Arrival{{At: 1, Job: j1}, {At: 2, Job: j2}})
	if len(subs) != 2 || subs[0].At != 1 || subs[1].At != 2 || subs[0].Job.Bench != j1.Bench {
		t.Errorf("conversion broken: %+v", subs)
	}
}
