package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"moespark/internal/workload"
)

// greedyScheduler is a simple est-free policy for property tests: first-fit
// with bounded reservations.
type greedyScheduler struct{}

func (greedyScheduler) Name() string                       { return "test-greedy" }
func (greedyScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (greedyScheduler) Schedule(c *Cluster) {
	for _, app := range c.WaitingApps() {
		for _, n := range c.Nodes() {
			if len(app.Executors) >= app.MaxExecutors {
				break
			}
			if app.ExecutorOn(n) || app.BlockedOn(n, c.Now()) {
				continue
			}
			free := n.FreeGB()
			if free < 5 {
				continue
			}
			share := app.RemainingGB / float64(app.MaxExecutors-len(app.Executors))
			reserve := free / 2
			if reserve > 30 {
				reserve = 30
			}
			_, _ = c.Spawn(app, n, reserve, share)
		}
	}
}

// randomJobs draws a random mix of 1..10 jobs.
func randomJobs(r *rand.Rand) []workload.Job {
	cat := workload.Catalog()
	n := 1 + r.Intn(10)
	jobs := make([]workload.Job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, workload.Job{
			Bench:   cat[r.Intn(len(cat))],
			InputGB: []float64{0.3, 10, 30, 120}[r.Intn(4)],
		})
	}
	return jobs
}

// Property: every run completes all applications, timestamps are ordered
// (submit <= ready <= start <= done where defined), and turnarounds are at
// least the isolated time divided by available parallelism headroom.
func TestRunInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		jobs := randomJobs(r)
		c := New(DefaultConfig())
		res, err := c.Run(jobs, greedyScheduler{})
		if err != nil {
			return false
		}
		for _, a := range res.Apps {
			if a.State != StateDone {
				return false
			}
			if a.DoneTime < 0 || a.DoneTime > res.MakespanSec+1e-6 {
				return false
			}
			if a.ReadyTime >= 0 && a.ReadyTime < a.SubmitTime {
				return false
			}
			if a.StartTime >= 0 && a.ReadyTime >= 0 && a.StartTime+1e-9 < a.ReadyTime {
				return false
			}
			if a.DoneTime < a.StartTime {
				return false
			}
			// Executors are all released at completion.
			if len(a.Executors) != 0 {
				return false
			}
			// No app can beat the startup latency.
			if a.Turnaround() < startupSec-1e-6 {
				return false
			}
		}
		// Nodes end empty.
		for _, n := range c.Nodes() {
			if len(n.Executors) != 0 || n.ReservedGB() != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: reservations never exceed the advertised allocatable memory on
// any node at any scheduling point.
type reservationProbe struct {
	inner  Scheduler
	failed bool
}

func (p *reservationProbe) Name() string { return p.inner.Name() }
func (p *reservationProbe) Prepare(c *Cluster, a *App) ProfilePlan {
	return p.inner.Prepare(c, a)
}
func (p *reservationProbe) Schedule(c *Cluster) {
	p.inner.Schedule(c)
	for _, n := range c.Nodes() {
		if n.ReservedGB() > n.AllocatableGB()+1e-6 {
			p.failed = true
		}
	}
}

func TestReservationsBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		jobs := randomJobs(r)
		c := New(DefaultConfig())
		probe := &reservationProbe{inner: greedyScheduler{}}
		if _, err := c.Run(jobs, probe); err != nil {
			return false
		}
		return !probe.failed
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(72))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: with fleet sizes pinned (one executor per app), doubling every
// input never makes the mix finish sooner. (With dynamic fleets the property
// is false: a larger input earns a larger fleet and can finish earlier.)
func TestMakespanMonotoneInWorkProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		jobs := randomJobs(r)
		run := func(scale float64) float64 {
			scaled := make([]workload.Job, len(jobs))
			for i, j := range jobs {
				scaled[i] = workload.Job{Bench: j.Bench, InputGB: j.InputGB * scale}
			}
			cfg := DefaultConfig()
			cfg.ExecutorSpreadGB = 1e9 // one executor per app at any size
			c := New(cfg)
			res, err := c.Run(scaled, greedyScheduler{})
			if err != nil {
				return -1
			}
			return res.MakespanSec
		}
		base := run(1)
		double := run(2)
		if base < 0 || double < 0 {
			return false
		}
		return double+1e-6 >= base
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(73))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// diffScheduler drives the differential engine test through every hot path:
// profiling plans for larger jobs, greedy bounded-reservation placement,
// deliberate under-reservation (heap pressure), a mid-run oversized foreign
// "hog" that overflows a busy node past RAM+swap (admission charged the
// executors before the hog existed, so the OOM-kill and blacklist paths
// fire) and — for classed runs — preemption on behalf of starved
// high-weight arrivals.
type diffScheduler struct {
	preempt  bool
	hog      bool
	hogAdded bool
	waitBuf  []*App
}

func (s *diffScheduler) Name() string { return "test-differential" }
func (s *diffScheduler) Prepare(c *Cluster, a *App) ProfilePlan {
	if a.Job.InputGB >= 10 {
		return ContributingProfile(a.Job.InputGB * 0.04)
	}
	return ProfilePlan{}
}
func (s *diffScheduler) Schedule(c *Cluster) {
	if s.hog && !s.hogAdded && c.Now() > 50 {
		for _, app := range c.ActiveApps() {
			if len(app.Executors) > 0 {
				n := app.Executors[0].Node
				over := n.Spec.UsableGB() + n.Spec.SwapGB - n.ActualGB() + 5
				if _, err := c.AddForeign(n.ID, "hog", 0.3, over, 200); err == nil {
					s.hogAdded = true
				}
				break
			}
		}
	}
	s.waitBuf = c.AppendWaitingApps(s.waitBuf[:0])
	if len(s.waitBuf) == 0 {
		return
	}
	// One fleet scan bounds the best placement anywhere: whenever even the
	// freest available node is under the 5 GB spawn minimum, every node walk
	// below would place nothing, so the walks are skipped wholesale. The
	// bound only decays under the loop (spawns never free memory), so it
	// stays conservative without rescanning per app; preemption kills free
	// memory and force a rescan. This fixes the unconditioned
	// O(waiting×nodes) walk flagged in the settle-engine PR: on storm seeds
	// a backed-up waiting set times a packed fleet dominated the suite's
	// runtime while deciding nothing. Placement decisions are identical
	// either way.
	maxFree := maxFreeGB(c)
	for _, app := range s.waitBuf {
		if s.preempt && app.Class.Weight >= 2 && len(app.Executors) == 0 {
			if c.PreemptFor(app, 25, app.Job.Bench.CPULoad, 0) > 0 {
				maxFree = maxFreeGB(c)
			}
		}
		if maxFree < 5 {
			continue
		}
		for _, n := range c.Nodes() {
			if len(app.Executors) >= app.MaxExecutors {
				break
			}
			if !n.Available() || app.ExecutorOn(n) || (app.BlockedOn(n, c.Now()) && len(n.Executors) > 0) {
				continue
			}
			free := n.FreeGB()
			if free < 5 {
				continue
			}
			share := app.RemainingGB / float64(app.MaxExecutors-len(app.Executors))
			reserve := free / 2
			if reserve > 30 {
				reserve = 30
			}
			if app.ID%5 == 3 {
				// Under-reserve every fifth app: heap-pressure rates, and —
				// together with oversized foreign working sets — OOM kills.
				reserve = free / 6
			}
			_, _ = c.Spawn(app, n, reserve, share)
		}
	}
}

// maxFreeGB returns the largest free reservation on any available node — the
// upper bound diffScheduler's walk-skipping relies on.
func maxFreeGB(c *Cluster) float64 {
	best := 0.0
	for _, n := range c.Nodes() {
		if !n.Available() {
			continue
		}
		if f := n.FreeGB(); f > best {
			best = f
		}
	}
	return best
}

// shadowIntegrator replays the pre-settle engine's per-event integration of
// remaining work alongside the settle-based engine. The engine brings an
// entity's progress forward in ONE multiply when its rate actually changes
// (remaining -= rate * (now - settledAt)); the shadow subtracts rate*dt on
// EVERY event, exactly like the PR4 engine did. Both follow the same
// piecewise-constant rate trajectory, so mathematically they agree; in floats
// they differ by reassociation only — computing r*(dt1+...+dtk) as one product
// versus k fused subtract-multiplies. Each step contributes O(ulp) error:
// rounding of r*dt_i (~ulp(remaining) ≈ 1.4e-14 at 100 GB) plus the engine's
// now - settledAt cancellation (~ulp(now) * r ≈ 4e-13 at t=20000s, r=0.1).
// With at most a few thousand events between an app's settle points the drift
// is bounded well under 1e-8 GB; the check uses tol = 1e-6 absolute + 1e-9
// relative, three orders of magnitude of headroom while still far below any
// physically meaningful amount of work (the engine's own completion epsilon
// is 1e-6 GB). This is the one deliberately non-exact check in the
// differential harness — everything else (rates, deadlines, dt, share,
// waiting set) must agree bit-for-bit.
//
// Comparisons happen at settle points only (a.settledAt == now, the instant
// the engine's value is current), and are skipped — with a re-anchor — across
// events that mutate remaining work outside rate integration: executor kill
// charge-backs (detected via the kill counters) and state transitions (the
// profiling-completion ContributeGB subtraction).
type shadowIntegrator struct {
	c       *Cluster
	apps    map[*App]float64
	state   map[*App]AppState
	foreign map[*ForeignTask]float64
	kills   int
}

func newShadow(c *Cluster) *shadowIntegrator {
	return &shadowIntegrator{
		c:       c,
		apps:    map[*App]float64{},
		state:   map[*App]AppState{},
		foreign: map[*ForeignTask]float64{},
	}
}

// step runs inside the checkEvent hook (rates fresh, advance(dt) about to
// run): it compares freshly settled entities against the shadow trajectory,
// re-anchors at every settle point, then integrates rate*dt for the upcoming
// interval. Returns "" or a description of the first divergence.
func (s *shadowIntegrator) step(dt float64) string {
	const tiny = 1e-9
	kills := s.c.totalOOM + s.c.totalFailKills + s.c.totalPreemptKills
	killed := kills != s.kills
	s.kills = kills
	for _, a := range s.c.active {
		if a.settledAt == s.c.now {
			prev, seen := s.apps[a]
			if seen && !killed && s.state[a] == StateRunning && a.State == StateRunning {
				tol := 1e-6 + 1e-9*math.Abs(a.RemainingGB)
				if math.Abs(prev-a.RemainingGB) > tol {
					return fmt.Sprintf("app %d: settled remaining %.12g GB, shadow per-event integral %.12g GB (diff %.3g > tol %.3g)",
						a.ID, a.RemainingGB, prev, math.Abs(prev-a.RemainingGB), tol)
				}
			}
			s.apps[a] = a.RemainingGB
		}
		s.state[a] = a.State
		if a.State == StateRunning && a.startupUntil <= s.c.now {
			if r := appRate(a); r > tiny {
				if v, seen := s.apps[a]; seen {
					s.apps[a] = v - r*dt
				}
			}
		}
	}
	for _, f := range s.c.activeForeign {
		if f.done {
			continue
		}
		if f.settledAt == s.c.now {
			prev, seen := s.foreign[f]
			if seen {
				tol := 1e-6 + 1e-9*math.Abs(f.remaining)
				if math.Abs(prev-f.remaining) > tol {
					return fmt.Sprintf("foreign %q: settled remaining %.12g s, shadow per-event integral %.12g s (diff %.3g > tol %.3g)",
						f.Name, f.remaining, prev, math.Abs(prev-f.remaining), tol)
				}
			}
			s.foreign[f] = f.remaining
		}
		if f.rate > tiny {
			if v, seen := s.foreign[f]; seen {
				s.foreign[f] = v - f.rate*dt
			}
		}
	}
	return ""
}

// buildDiffWorkload reconstructs the differential suite's seeded workload:
// the fleet, arrivals, classes, storms and foreign tasks are a pure function
// of the seed. It returns the cluster, the submission stream, the scheduler,
// and whether this is a rack-storm seed.
func buildDiffWorkload(t *testing.T, seed int64) (*Cluster, []Submission, *diffScheduler, bool) {
	t.Helper()
	// The last three seeds run the failure-domain machinery: racked
	// fleets, correlated rack storms with warning drains, graceful
	// migration with handoff, OOM retry budgets and capacity-ratcheted
	// fleet sizing — all under the same exact-agreement harness.
	rackStorm := seed >= 25
	r := rand.New(rand.NewSource(seed))
	nodeCount := 6 + r.Intn(12)
	var fleet []workload.NodeClass
	var err error
	switch r.Intn(3) {
	case 0:
		fleet, err = workload.UniformFleet(nodeCount, workload.PaperNode())
	case 1:
		fleet, err = workload.BimodalFleet(nodeCount, workload.BigNode(), workload.LittleNode(), 0.4, r)
	default:
		fleet, err = workload.StragglerFleet(nodeCount, workload.PaperNode(), 0.3, 0.4, r)
	}
	if err != nil {
		t.Fatalf("seed %d: fleet: %v", seed, err)
	}
	if rackStorm {
		if fleet, err = workload.AssignRacks(fleet, 3, 2); err != nil {
			t.Fatalf("seed %d: racks: %v", seed, err)
		}
	}
	arrivals, err := workload.PoissonArrivals(15+r.Intn(25), 0.01+0.02*r.Float64(), r)
	if err != nil {
		t.Fatalf("seed %d: arrivals: %v", seed, err)
	}
	classed := r.Intn(2) == 0
	if classed {
		if arrivals, err = workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), r); err != nil {
			t.Fatalf("seed %d: classes: %v", seed, err)
		}
	}
	cfg := DefaultConfig()
	if r.Intn(2) == 0 {
		cfg.TraceInterval = 40
	}
	// This draw once chose whether completed foreign working sets were
	// released; they always are now, and the draw stays so every seed keeps
	// the workload it always generated.
	_ = r.Intn(2)
	if rackStorm {
		cfg.MigrateOnDrain = true
		cfg.OOMRetryBudget = 1 + r.Intn(3)
		cfg.RefreshFleetSizing = true
	}
	specs := SpecsFrom(fleet)
	c, err := NewHetero(cfg, specs)
	if err != nil {
		t.Fatalf("seed %d: cluster: %v", seed, err)
	}
	span := arrivals[len(arrivals)-1].At
	switch {
	case rackStorm:
		storm, err := RackStormEvents(specs, 1, 1, span*0.1, span*0.8+1, 20, 60, r)
		if err != nil {
			t.Fatalf("seed %d: rack storm: %v", seed, err)
		}
		if err := c.ScheduleNodeEvents(storm...); err != nil {
			t.Fatalf("seed %d: node events: %v", seed, err)
		}
	case r.Intn(2) == 0:
		storm, err := StormEvents(nodeCount, 1, 1, span*0.1, span*0.8+1, 25, r)
		if err != nil {
			t.Fatalf("seed %d: storm: %v", seed, err)
		}
		if err := c.ScheduleNodeEvents(storm...); err != nil {
			t.Fatalf("seed %d: node events: %v", seed, err)
		}
	}
	for i, fn := 0, r.Intn(3); i < fn; i++ {
		// Oversized working sets bypass admission control, forcing the
		// OOM-kill and blacklist paths on co-located executors.
		if _, err := c.AddForeign(r.Intn(nodeCount), "co-runner", 0.2+0.5*r.Float64(), 10+25*r.Float64(), 400+600*r.Float64()); err != nil {
			t.Fatalf("seed %d: foreign: %v", seed, err)
		}
	}
	return c, Submissions(arrivals), &diffScheduler{preempt: classed, hog: seed%3 == 0}, rackStorm
}

// fleetSizingDiff sizes every in-flight app's input with the indexed walk
// and with the sort-based reference, returning the first disagreement or "".
func fleetSizingDiff(c *Cluster) string {
	for _, a := range c.active {
		if got, ref := c.fleetFor(a.Job.InputGB), c.refFleetFor(a.Job.InputGB); got != ref {
			return fmt.Sprintf("app %d (%v GB): fleetFor %d, reference %d", a.ID, a.Job.InputGB, got, ref)
		}
	}
	return ""
}

// installDiffHook wires the full exact-agreement hook — scan-based reference
// replays plus the shadow integrator — onto the cluster and returns the
// fired-event counter.
func installDiffHook(t *testing.T, c *Cluster, label string) *int {
	t.Helper()
	events := new(int)
	shadow := newShadow(c)
	c.checkEvent = func(share, dt float64, ok bool) {
		*events++
		if ref := c.refProfilingShare(); share != ref {
			t.Fatalf("%s event %d: profiling share %v, reference %v", label, *events, share, ref)
		}
		refDt, refOK := c.refNextEventDt(share)
		if ok != refOK || (ok && dt != refDt) {
			t.Fatalf("%s event %d: next event dt (%v,%v), reference (%v,%v)", label, *events, dt, ok, refDt, refOK)
		}
		if diff := c.refCheckRates(); diff != "" {
			t.Fatalf("%s event %d: %s", label, *events, diff)
		}
		if diff := c.refCheckDeadlines(share); diff != "" {
			t.Fatalf("%s event %d: %s", label, *events, diff)
		}
		if diff := c.refCheckNodeSums(); diff != "" {
			t.Fatalf("%s event %d: %s", label, *events, diff)
		}
		if diff := fleetSizingDiff(c); diff != "" {
			t.Fatalf("%s event %d: %s", label, *events, diff)
		}
		if diff := shadow.step(dt); diff != "" {
			t.Fatalf("%s event %d: %s", label, *events, diff)
		}
		if got, ref := c.allDone(), c.refAllDone(); got != ref {
			t.Fatalf("%s event %d: allDone %v, reference %v", label, *events, got, ref)
		}
		got := c.AppendWaitingApps(nil)
		ref := c.refWaitingApps()
		if len(got) != len(ref) {
			t.Fatalf("%s event %d: waiting set size %d, reference %d", label, *events, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s event %d: waiting[%d] = app %d, reference app %d", label, *events, i, got[i].ID, ref[i].ID)
			}
		}
	}
	return events
}

// TestIndexedEngineMatchesScanReference is the differential property test
// for the event index: each of the 28 seeded randomized workloads — mixed
// fleets, node events, tenant classes, preemption, foreign tasks, profiling,
// traces, rack storms — runs with the engine's per-event hook replaying the
// preserved scan-based reference paths (engine_ref.go) against the indexed
// engine's state on every event, requiring exact (==, not approximate)
// agreement of the profiling share, the chosen event dt, the completion
// check, the waiting set, every in-flight app's fleet size, every stored rate,
// every stored completion deadline and every node's stored totals. The one
// approximate check is the shadow per-event integrator (see
// shadowIntegrator), which bounds the settle-vs-per-event float drift.
func TestIndexedEngineMatchesScanReference(t *testing.T) {
	stormMigrations := 0
	for seed := int64(0); seed < 28; seed++ {
		c, subs, sched, rackStorm := buildDiffWorkload(t, seed)
		label := fmt.Sprintf("seed %d:", seed)
		events := installDiffHook(t, c, label)
		res, err := c.RunOpen(subs, sched)
		if err != nil {
			t.Fatalf("%s run: %v", label, err)
		}
		if *events == 0 {
			t.Fatalf("%s differential hook never fired", label)
		}
		for _, a := range res.Apps {
			if a.State != StateDone {
				t.Fatalf("%s app %d finished in state %v", label, a.ID, a.State)
			}
		}
		if rackStorm {
			stormMigrations += res.Migrations
		}
	}
	if stormMigrations == 0 {
		t.Error("rack-storm seeds never migrated an executor: the failure-domain paths went untested")
	}
}

// scaleDiffScheduler drives the fleet-scale differential run: the whole-node
// policy of the engine benchmarks plus a contributing profiling plan for
// larger jobs, so the profiling-share settle path is on the clock too.
// diffScheduler is not reusable here — its per-event walk of the whole
// waiting set against every node is fine at 40 apps and pathological once a
// 20k stream backs up.
type scaleDiffScheduler struct {
	fullSpeedScheduler
}

func (s *scaleDiffScheduler) Prepare(c *Cluster, a *App) ProfilePlan {
	if a.Job.InputGB >= 10 {
		return ContributingProfile(a.Job.InputGB * 0.04)
	}
	return ProfilePlan{}
}

// TestIndexedEngineMatchesScanReference20000 runs the differential harness at
// fleet scale: a 20,000-application classed stream on the 64-node bimodal
// storm fleet of the scaling benchmarks. The shadow integrator (O(in-flight)
// per event) and the node-totals recount (O(nodes + executors)) run on every
// event; the heavy O(total-apps) reference scans are subsampled to every 8th
// event, which still lands tens of thousands of full scan-vs-index
// comparisons across the run while keeping the test minutes off the critical
// path. Excluded under -short.
func TestIndexedEngineMatchesScanReference20000(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-app differential run excluded under -short")
	}
	const apps = 20000
	const nodes = 64
	fleet, err := workload.BimodalFleet(nodes, workload.BigNode(), workload.LittleNode(), 0.5, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	arrivals, err := workload.PoissonArrivals(apps, 0.018, rng)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewHetero(DefaultConfig(), SpecsFrom(fleet))
	if err != nil {
		t.Fatal(err)
	}
	span := tagged[len(tagged)-1].At
	storm, err := StormEvents(nodes, 4, 4, span*0.1, span*0.8, 30, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleNodeEvents(storm...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.AddForeign(i*7, "co-runner", 0.4, 20, 900); err != nil {
			t.Fatal(err)
		}
	}
	events, checked := 0, 0
	shadow := newShadow(c)
	c.checkEvent = func(share, dt float64, ok bool) {
		events++
		if diff := shadow.step(dt); diff != "" {
			t.Fatalf("event %d: %s", events, diff)
		}
		if diff := c.refCheckNodeSums(); diff != "" {
			t.Fatalf("event %d: %s", events, diff)
		}
		if events%8 != 0 {
			return
		}
		checked++
		if ref := c.refProfilingShare(); share != ref {
			t.Fatalf("event %d: profiling share %v, reference %v", events, share, ref)
		}
		refDt, refOK := c.refNextEventDt(share)
		if ok != refOK || (ok && dt != refDt) {
			t.Fatalf("event %d: next event dt (%v,%v), reference (%v,%v)", events, dt, ok, refDt, refOK)
		}
		if diff := c.refCheckRates(); diff != "" {
			t.Fatalf("event %d: %s", events, diff)
		}
		if diff := c.refCheckDeadlines(share); diff != "" {
			t.Fatalf("event %d: %s", events, diff)
		}
		if diff := fleetSizingDiff(c); diff != "" {
			t.Fatalf("event %d: %s", events, diff)
		}
		if got, ref := c.allDone(), c.refAllDone(); got != ref {
			t.Fatalf("event %d: allDone %v, reference %v", events, got, ref)
		}
		got := c.AppendWaitingApps(nil)
		ref := c.refWaitingApps()
		if len(got) != len(ref) {
			t.Fatalf("event %d: waiting set size %d, reference %d", events, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("event %d: waiting[%d] = app %d, reference app %d", events, i, got[i].ID, ref[i].ID)
			}
		}
	}
	res, err := c.RunOpen(Submissions(tagged), &scaleDiffScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 1000 {
		t.Fatalf("only %d subsampled reference checks over %d events; harness misconfigured", checked, events)
	}
	for _, a := range res.Apps {
		if a.State != StateDone {
			t.Fatalf("app %d finished in state %v", a.ID, a.State)
		}
	}
}

func TestGrowValidation(t *testing.T) {
	c := New(DefaultConfig())
	b, err := workload.Find("SP.Pca")
	if err != nil {
		t.Fatal(err)
	}
	app := &App{
		ID: 0, Job: workload.Job{Bench: b, InputGB: 100},
		RemainingGB: 100, MaxExecutors: 2, State: StateReady,
		ReadyTime: 0, StartTime: -1, DoneTime: -1,
	}
	n := c.Nodes()[0]
	e, err := c.Spawn(app, n, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Shrinking is rejected.
	if err := c.Grow(e, 12, 10); err == nil {
		t.Error("Grow must not shrink the allocation")
	}
	// NaN sizes pass every range comparison, so they are rejected up front
	// and leave the executor and its node untouched.
	free := n.FreeGB()
	for _, sz := range [][2]float64{{math.NaN(), math.NaN()}, {math.NaN(), 20}, {20, math.NaN()}, {-1, 20}} {
		if err := c.Grow(e, sz[0], sz[1]); err == nil {
			t.Errorf("Grow reserve %v items %v: no error", sz[0], sz[1])
		}
		if e.ReservedGB != 10 || e.ItemsGB != 15 || e.NeedGB != b.Footprint(15) || n.FreeGB() != free {
			t.Fatalf("Grow reserve %v items %v: reserve=%v items=%v need=%v free=%v, want unchanged",
				sz[0], sz[1], e.ReservedGB, e.ItemsGB, e.NeedGB, n.FreeGB())
		}
	}
	// Growing beyond free memory is rejected.
	if err := c.Grow(e, n.AllocatableGB()+20, 80); err == nil {
		t.Error("Grow must respect free memory")
	}
	// Valid growth updates reservation, items, and footprints.
	oldNeed := e.NeedGB
	if err := c.Grow(e, 25, 40); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if e.ReservedGB != 25 || e.ItemsGB != 40 {
		t.Errorf("grow result: reserve=%v items=%v", e.ReservedGB, e.ItemsGB)
	}
	if e.NeedGB <= oldNeed {
		t.Errorf("need did not grow: %v -> %v", oldNeed, e.NeedGB)
	}
	if e.ActualGB > e.ReservedGB*(1+offHeapFrac)+1e-9 {
		t.Errorf("resident %v exceeds heap cap", e.ActualGB)
	}
	// Items clamp at remaining work.
	if err := c.Grow(e, 30, 500); err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if e.ItemsGB > app.RemainingGB {
		t.Errorf("items %v exceed remaining %v", e.ItemsGB, app.RemainingGB)
	}
}

// TestCacheEfficiencyStored pins the cache-efficiency factor that Spawn and
// Grow store on an executor at the edges of its formula, then requires the
// rate pass that reads it to agree with refCheckRates' fresh evaluation.
func TestCacheEfficiencyStored(t *testing.T) {
	b := testBench(t, "SP.Pca")
	cases := []struct {
		name        string
		remainingGB float64 // two executor slots: the fair share is half
		itemsGB     float64
		growItemsGB float64 // 0: no Grow
		want        float64
	}{
		// Fair share 50 GB: 30 GB of items keeps (30/50)^gamma above the floor.
		{"below fair share", 100, 30, 0, math.Pow(30.0/50, cacheGamma)},
		// (5/50)^gamma is about 0.50, below the 0.6 floor.
		{"clamped to floor", 100, 5, 0, cacheFloor},
		// Fair share 0.05 GB equals MinChunkGB. Spawn's chunk check admits
		// items up to 1e-9 GB short of MinChunkGB, the only way items can sit
		// below such a small fair share; the factor must still be 1.
		{"fair share at min chunk", 0.1, MinChunkGB - 5e-10, 0, 1},
		{"grow to fair share", 100, 30, 50, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(DefaultConfig())
			app := &App{
				ID: 0, Job: workload.Job{Bench: b, InputGB: tc.remainingGB},
				RemainingGB: tc.remainingGB, MaxExecutors: 2, State: StateReady,
				ReadyTime: 0, StartTime: -1, DoneTime: -1,
			}
			e, err := c.Spawn(app, c.Nodes()[0], 10, tc.itemsGB)
			if err != nil {
				t.Fatal(err)
			}
			if tc.growItemsGB > 0 {
				if e.cacheEff >= 1 {
					t.Fatalf("spawn factor %v, want below 1 before the grow", e.cacheEff)
				}
				if err := c.Grow(e, 10, tc.growItemsGB); err != nil {
					t.Fatal(err)
				}
			}
			if e.cacheEff != tc.want {
				t.Errorf("stored factor %v, want %v", e.cacheEff, tc.want)
			}
			app.startupUntil = c.now // rates go live at once, so the factor reaches them
			c.recomputeRates()
			if e.Rate() <= 0 {
				t.Fatalf("rate %v: the executor never went live", e.Rate())
			}
			if diff := c.refCheckRates(); diff != "" {
				t.Error(diff)
			}
		})
	}
}

// TestRatePassWalksDirtySetByID runs the rate pass over a fleet whose dirty
// set spans two bitset words: 64 nodes plus a joined node with ID 64. With
// every node dirty, one pass must leave every stored rate equal to a full
// recompute and the set empty, and a full-fleet pass must not allocate.
func TestRatePassWalksDirtySetByID(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 64
	c := New(cfg)
	if err := c.ScheduleNodeEvents(NodeEvent{At: 0, Kind: NodeJoin}); err != nil {
		t.Fatal(err)
	}
	if err := c.applyNodeEvents(); err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	if len(nodes) != 65 || nodes[64].ID != 64 {
		t.Fatalf("joined fleet: %d nodes, last ID %d; want 65 nodes, last ID 64", len(nodes), nodes[len(nodes)-1].ID)
	}
	// Two apps on every node, items below fair share, so each rate carries
	// interference and the cache-efficiency factor.
	b := testBench(t, "SP.Pca")
	for id := range 2 {
		app := &App{
			ID: id, Job: workload.Job{Bench: b, InputGB: 650},
			RemainingGB: 650, MaxExecutors: len(nodes), State: StateReady,
			ReadyTime: 0, StartTime: -1, DoneTime: -1,
		}
		for _, n := range nodes {
			if _, err := c.Spawn(app, n, 5, 5); err != nil {
				t.Fatalf("app %d on node %d: %v", id, n.ID, err)
			}
		}
		app.startupUntil = c.now // rates go live at once
	}
	for _, n := range nodes {
		c.markDirty(n)
	}
	c.recomputeRates()
	if diff := c.refCheckRates(); diff != "" {
		t.Fatal(diff)
	}
	for _, e := range nodes[64].Executors {
		if e.Rate() <= 0 {
			t.Fatalf("joined node's executor rate %v: the second word was not walked", e.Rate())
		}
	}
	for w, word := range c.dirty {
		if word != 0 {
			t.Fatalf("dirty word %d = %#x after the pass, want 0", w, word)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, n := range nodes {
			c.markDirty(n)
		}
		c.recomputeRates()
	})
	if allocs != 0 {
		t.Errorf("full-fleet rate pass allocates %v times, want 0", allocs)
	}
}

// TestNodeTotalsFollowTouchPoints drives every engine touch point that
// changes a node's stored totals or an app's shrunken-executor count by
// hand, and after each one compares the stored values with totals derived
// from what the node visibly holds.
func TestNodeTotalsFollowTouchPoints(t *testing.T) {
	type totals struct{ reserved, actual, cpu float64 }
	check := func(t *testing.T, step string, n *Node, want totals) {
		t.Helper()
		got := totals{n.ReservedGB(), n.ActualGB(), n.CPUDemand()}
		const tol = 1e-9
		if math.Abs(got.reserved-want.reserved) > tol || math.Abs(got.actual-want.actual) > tol || math.Abs(got.cpu-want.cpu) > tol {
			t.Errorf("%s: node %d reserved/actual/cpu %+v, want %+v", step, n.ID, got, want)
		}
	}
	checkShrunk := func(t *testing.T, step string, a *App, want int) {
		t.Helper()
		if got := a.ShrunkenExecutors(); got != want {
			t.Errorf("%s: app %d has %d shrunken executors, want %d", step, a.ID, got, want)
		}
	}
	b := testBench(t, "SP.Pca")
	cpu := b.CPULoad
	newApp := func(id int, class workload.Class, inputGB float64, maxExec int) *App {
		return &App{
			ID: id, Job: workload.Job{Bench: b, InputGB: inputGB}, Class: class,
			RemainingGB: inputGB, MaxExecutors: maxExec, State: StateReady,
			ReadyTime: 0, StartTime: -1, DoneTime: -1,
		}
	}
	spawn := func(t *testing.T, c *Cluster, a *App, n *Node, reserveGB, itemsGB float64) *Executor {
		t.Helper()
		e, err := c.Spawn(a, n, reserveGB, itemsGB)
		if err != nil {
			t.Fatalf("spawn app %d on node %d: %v", a.ID, n.ID, err)
		}
		return e
	}
	cfg := DefaultConfig()
	cfg.Nodes = 3

	t.Run("spawn, grow and remove", func(t *testing.T) {
		c := New(cfg)
		n0, n1 := c.Nodes()[0], c.Nodes()[1]
		a := newApp(0, workload.Class{}, 100, 2) // fair share 50 GB
		e := spawn(t, c, a, n0, 10, 20)
		check(t, "spawn", n0, totals{10, e.ActualGB, cpu})
		checkShrunk(t, "spawn below fair share", a, 1)
		if err := c.Grow(e, 12, 30); err != nil {
			t.Fatal(err)
		}
		check(t, "grow", n0, totals{12, e.ActualGB, cpu})
		checkShrunk(t, "grow still below fair share", a, 1)
		if err := c.Grow(e, 15, 50); err != nil {
			t.Fatal(err)
		}
		check(t, "grow to fair share", n0, totals{15, e.ActualGB, cpu})
		checkShrunk(t, "grow to fair share", a, 0)
		e1 := spawn(t, c, a, n1, 5, 10) // fair share 100 GB: the last slot
		checkShrunk(t, "second spawn below fair share", a, 1)
		c.removeExecutor(e1)
		check(t, "remove", n1, totals{})
		checkShrunk(t, "remove", a, 0)
	})

	t.Run("foreign arrival and completion", func(t *testing.T) {
		c := New(cfg)
		n := c.Nodes()[0]
		e := spawn(t, c, newApp(0, workload.Class{}, 100, 2), n, 10, 20)
		f, err := c.AddForeign(n.ID, "co-runner", 0.3, 12, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "AddForeign", n, totals{10 + 12, e.ActualGB + 12, cpu + 0.3})
		c.completeForeign(f)
		if !f.Done() {
			t.Fatal("a zero-work foreign task must complete")
		}
		check(t, "completeForeign", n, totals{10, e.ActualGB, cpu})
	})

	t.Run("OOM kill", func(t *testing.T) {
		c := New(cfg)
		n := c.Nodes()[0]
		a := newApp(0, workload.Class{}, 100, 2)
		e := spawn(t, c, a, n, 10, 20)
		// 80 GB of foreign memory alone exceeds RAM+swap (76 GB usable).
		if _, err := c.AddForeign(n.ID, "hog", 0.2, 80, 100); err != nil {
			t.Fatal(err)
		}
		check(t, "AddForeign hog", n, totals{10 + 80, e.ActualGB + 80, cpu + 0.2})
		c.recomputeRates()
		if c.TotalOOMKills() != 1 {
			t.Fatalf("OOM kills %d, want 1", c.TotalOOMKills())
		}
		check(t, "OOM kill", n, totals{80, 80, 0.2})
		checkShrunk(t, "OOM kill", a, 0)
	})

	t.Run("preempt", func(t *testing.T) {
		c := New(cfg)
		n := c.Nodes()[0]
		batch := workload.Class{Name: "batch", Weight: 1, Preemptible: true}
		latency := workload.Class{Name: "latency", Weight: 2}
		victim := spawn(t, c, newApp(0, batch, 100, 2), n, 10, 20)
		kept := spawn(t, c, newApp(1, latency, 100, 2), n, 7, 20)
		check(t, "two spawns", n, totals{10 + 7, victim.ActualGB + kept.ActualGB, 2 * cpu})
		if err := c.Preempt(victim, newApp(2, latency, 100, 2)); err != nil {
			t.Fatal(err)
		}
		check(t, "preempt", n, totals{7, kept.ActualGB, cpu})
	})

	t.Run("node failure", func(t *testing.T) {
		c := New(cfg)
		n := c.Nodes()[0]
		e := spawn(t, c, newApp(0, workload.Class{}, 100, 2), n, 10, 20)
		if _, err := c.AddForeign(n.ID, "co-runner", 0.3, 12, 100); err != nil {
			t.Fatal(err)
		}
		check(t, "before failure", n, totals{10 + 12, e.ActualGB + 12, cpu + 0.3})
		c.failNode(n)
		// The lost co-runner is done, so its working set leaves with its
		// CPU demand.
		check(t, "failNode", n, totals{})
	})

	t.Run("migration and handoff", func(t *testing.T) {
		c := New(cfg)
		n0, n1, n2 := c.Nodes()[0], c.Nodes()[1], c.Nodes()[2]
		a := newApp(0, workload.Class{}, 100, 3)
		other := spawn(t, c, newApp(1, workload.Class{}, 100, 3), n1, 7, 20)
		moved := spawn(t, c, a, n0, 10, 20)
		if !c.migrateExecutor(moved) || moved.Node != n1 {
			t.Fatalf("executor migrated to node %d, want node 1", moved.Node.ID)
		}
		check(t, "migrate source", n0, totals{})
		check(t, "migrate target", n1, totals{7 + 10, other.ActualGB + moved.ActualGB, 2 * cpu})
		sibling := spawn(t, c, a, n2, 6, 20)
		checkShrunk(t, "before handoff", a, 2)
		if !c.handoffExecutor(moved) {
			t.Fatal("handoff found no sibling")
		}
		check(t, "handoff source", n1, totals{7, other.ActualGB, cpu})
		check(t, "handoff sibling", n2, totals{6, sibling.ActualGB, cpu})
		checkShrunk(t, "handoff", a, 1)
	})
}
