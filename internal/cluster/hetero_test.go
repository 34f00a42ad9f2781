package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"moespark/internal/workload"
)

func testJob(t *testing.T, gb float64) workload.Job {
	t.Helper()
	b, err := workload.Find("HB.Sort")
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Bench: b, InputGB: gb}
}

// addReady registers job as a ready app and fails the test if the cluster
// rejects it.
func addReady(tb testing.TB, c *Cluster, job workload.Job) *App {
	tb.Helper()
	a, err := c.AddReadyApp(job)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestNodeSpecValidate(t *testing.T) {
	good := ReferenceNode()
	if err := good.Validate(); err != nil {
		t.Fatalf("reference spec invalid: %v", err)
	}
	bad := []NodeSpec{
		{},
		{RAMGB: 64, Cores: 16, SpeedFactor: 0, SwapGB: 16, OSReserveGB: 4},
		{RAMGB: 64, Cores: 0, SpeedFactor: 1, SwapGB: 16, OSReserveGB: 4},
		{RAMGB: 4, Cores: 16, SpeedFactor: 1, SwapGB: 16, OSReserveGB: 8},
		{RAMGB: 64, Cores: 16, SpeedFactor: 1, SwapGB: -1, OSReserveGB: 4},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d (%+v) passed validation", i, s)
		}
	}
}

// TestPerNodeCapacity checks the capacity math reads each node's own spec.
func TestPerNodeCapacity(t *testing.T) {
	cfg := DefaultConfig()
	big := NodeSpec{RAMGB: 128, Cores: 32, SpeedFactor: 1.25, SwapGB: 32, OSReserveGB: 6}
	little := NodeSpec{RAMGB: 32, Cores: 8, SpeedFactor: 0.75, SwapGB: 8, OSReserveGB: 3}
	c, err := NewHetero(cfg, []NodeSpec{big, little})
	if err != nil {
		t.Fatal(err)
	}
	nb, nl := c.Nodes()[0], c.Nodes()[1]
	if got, want := nb.UsableGB(), 122.0; got != want {
		t.Errorf("big usable = %v, want %v", got, want)
	}
	if got, want := nl.UsableGB(), 29.0; got != want {
		t.Errorf("little usable = %v, want %v", got, want)
	}
	// Multiply at run time, as the engine does: folded as a constant
	// expression, 0.92*122 rounds to a neighbouring float64.
	if got, want := nb.AllocatableGB(), pressureWatermark*nb.UsableGB(); got != want {
		t.Errorf("big allocatable = %v, want %v", got, want)
	}
	if got, want := nb.CPUCapacity(), 2.0; got != want {
		t.Errorf("big CPU capacity = %v, want %v", got, want)
	}
	if got, want := nl.CPUCapacity(), 0.5; got != want {
		t.Errorf("little CPU capacity = %v, want %v", got, want)
	}
}

// TestSpeedFactorScalesRates runs the same single job on a fast and a slow
// one-node cluster: completion time must scale inversely with speed.
func TestSpeedFactorScalesRates(t *testing.T) {
	cfg := DefaultConfig()
	run := func(speed float64) float64 {
		spec := ReferenceNode()
		spec.SpeedFactor = speed
		c, err := NewHetero(cfg, []NodeSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run([]workload.Job{testJob(t, 10)}, &fullSpeedScheduler{})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSec
	}
	fast, slow := run(2), run(0.5)
	// Makespan includes the fixed startup latency; processing time scales 4x.
	fastProc := fast - startupSec
	slowProc := slow - startupSec
	if ratio := slowProc / fastProc; ratio < 3.99 || ratio > 4.01 {
		t.Errorf("slow/fast processing ratio = %v, want ~4 (speeds 0.5 vs 2)", ratio)
	}
}

// TestDrainStopsPlacements drains a node mid-run: no executor may spawn on
// it after the drain fires, resident executors finish their work, and the
// emptied node is then decommissioned (NodeRemoved) rather than idling
// forever.
func TestDrainStopsPlacements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := New(cfg)
	if err := c.ScheduleNodeEvents(NodeEvent{At: 1, Kind: NodeDrain, Node: 0}); err != nil {
		t.Fatal(err)
	}
	subs := []Submission{
		{At: 0, Job: testJob(t, 20)},   // lands on both nodes before the drain
		{At: 200, Job: testJob(t, 20)}, // arrives after: node 0 must be off-limits
	}
	res, err := c.RunOpen(subs, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.DoneTime < 0 {
			t.Fatalf("app %d never finished", a.ID)
		}
	}
	if got := c.Nodes()[0].State(); got != NodeRemoved {
		t.Errorf("node 0 state = %v, want removed (drain completed once empty)", got)
	}
	// Direct spawns on a decommissioned node must be rejected too.
	app := addReady(t, c, testJob(t, 10))
	if _, err := c.Spawn(app, c.Nodes()[0], 10, 10); !errors.Is(err, ErrNodeUnavailable) {
		t.Errorf("Spawn on draining node: err = %v, want ErrNodeUnavailable", err)
	}
}

// TestFailKillsAndReprocesses fails the only busy node mid-run: its
// executors die, the lost work is charged back, and the app completes on the
// surviving node.
func TestFailKillsAndReprocesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.ExecutorSpreadGB = 100 // one executor for the whole job
	c := New(cfg)
	if err := c.ScheduleNodeEvents(NodeEvent{At: 30, Kind: NodeFail, Node: 0}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run([]workload.Job{testJob(t, 50)}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailKills != 1 {
		t.Fatalf("fail kills = %d, want 1", res.FailKills)
	}
	if got := c.Nodes()[0].State(); got != NodeFailed {
		t.Errorf("node 0 state = %v, want failed", got)
	}
	a := res.Apps[0]
	if a.DoneTime < 0 {
		t.Fatal("app never finished after the failure")
	}
	// The app must have restarted on node 1 and re-done the killed
	// executor's reprocessing share, so it finishes later than an untouched
	// run would.
	c2 := New(cfg)
	base, err := c2.Run([]workload.Job{testJob(t, 50)}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if a.DoneTime <= base.Apps[0].DoneTime {
		t.Errorf("failed run finished at %v, not later than clean run %v", a.DoneTime, base.Apps[0].DoneTime)
	}
}

// TestJoinAddsCapacity verifies a joined node becomes placeable and speeds
// up a queued backlog relative to not joining.
func TestJoinAddsCapacity(t *testing.T) {
	jobs := []workload.Job{testJob(t, 30), testJob(t, 30), testJob(t, 30), testJob(t, 30)}
	run := func(join bool) float64 {
		cfg := DefaultConfig()
		cfg.Nodes = 1
		c := New(cfg)
		if join {
			spec := ReferenceNode()
			if err := c.ScheduleNodeEvents(NodeEvent{At: 20, Kind: NodeJoin, Spec: spec}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Run(jobs, &fullSpeedScheduler{})
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSec
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("makespan with join = %v, want < %v (without)", with, without)
	}
}

// TestNodeEventValidation covers event-time and target validation.
func TestNodeEventValidation(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.ScheduleNodeEvents(NodeEvent{At: -1, Kind: NodeDrain, Node: 0}); err == nil {
		t.Error("negative event time accepted")
	}
	if err := c.ScheduleNodeEvents(NodeEvent{At: 1, Kind: NodeEventKind(99), Node: 0}); err == nil {
		t.Error("unknown event kind accepted")
	}
	if err := c.ScheduleNodeEvents(NodeEvent{At: 1, Kind: NodeFail, Node: 999}); err != nil {
		t.Fatalf("deferred target validation should accept unknown node at schedule time: %v", err)
	}
	// ...but the run must fail when the event fires against a missing node.
	_, err := c.Run([]workload.Job{testJob(t, 5)}, &fullSpeedScheduler{})
	if err == nil {
		t.Error("run succeeded despite a fail event targeting a nonexistent node")
	}

	// A joined node takes the next fleet index as its ID, so an event can
	// target it; one index further is still past the fleet.
	cfg := DefaultConfig()
	cfg.Nodes = 2
	for _, target := range []int{cfg.Nodes, cfg.Nodes + 1} {
		c := New(cfg)
		if err := c.ScheduleNodeEvents(
			NodeEvent{At: 10, Kind: NodeJoin},
			NodeEvent{At: 20, Kind: NodeFail, Node: target},
		); err != nil {
			t.Fatal(err)
		}
		_, err := c.Run([]workload.Job{testJob(t, 50)}, &fullSpeedScheduler{})
		if target == cfg.Nodes+1 {
			if err == nil {
				t.Errorf("run succeeded despite a fail event targeting node %d of a %d-node fleet", target, len(c.Nodes()))
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Nodes()[target]; n.State() != NodeFailed || n.StateTime != 20 {
			t.Errorf("joined node %d is %v since %v, want failed since 20", target, n.State(), n.StateTime)
		}
	}
}

// TestStormEventsDeterministic pins the seeded storm generator.
func TestStormEventsDeterministic(t *testing.T) {
	a, err := StormEvents(40, 3, 2, 100, 500, 60, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := StormEvents(40, 3, 2, 100, 500, 60, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 10 {
		t.Fatalf("storm sizes %d vs %d, want 10 (5 events + 5 joins)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	targets := map[int]bool{}
	for _, ev := range a {
		if ev.Kind != NodeJoin {
			if targets[ev.Node] {
				t.Errorf("storm targets node %d twice", ev.Node)
			}
			targets[ev.Node] = true
		}
	}
	if _, err := StormEvents(4, 2, 2, 0, 100, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("fleet-exhausting storm accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range [][3]float64{
		{-1, 100, 10}, {0, 0, 10}, {0, 100, -1},
		{nan, 100, 10}, {0, nan, 10}, {0, 100, nan},
		{inf, 100, 10}, {0, inf, 10}, {0, 100, inf}, {-inf, 100, 10}, {0, -inf, 10},
	} {
		if _, err := StormEvents(40, 1, 1, w[0], w[1], w[2], rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("invalid window %v accepted", w)
		}
	}
}

// rackedTestSpecs builds a small racked uniform fleet for storm tests.
func rackedTestSpecs(t *testing.T, nodes, racks, zones int) []NodeSpec {
	t.Helper()
	fleet, err := workload.UniformFleet(nodes, workload.PaperNode())
	if err != nil {
		t.Fatal(err)
	}
	if fleet, err = workload.AssignRacks(fleet, racks, zones); err != nil {
		t.Fatal(err)
	}
	return SpecsFrom(fleet)
}

// TestRackStormEventsDeterministic pins the seeded rack-storm generator: the
// same seed yields the identical event list, element for element.
func TestRackStormEventsDeterministic(t *testing.T) {
	specs := rackedTestSpecs(t, 12, 4, 2)
	gen := func() []NodeEvent {
		evs, err := RackStormEvents(specs, 1, 2, 100, 400, 30, 120, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("storm sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRackStormEventsStructure checks the correlated-failure shape: every
// node of a chosen rack leaves at the same instant, failing racks get their
// warning drain exactly warnSec ahead, and every departed node rejoins with
// the identical spec rejoinDelay after it went away.
func TestRackStormEventsStructure(t *testing.T) {
	const warn, rejoin = 30.0, 120.0
	specs := rackedTestSpecs(t, 12, 4, 2)
	evs, err := RackStormEvents(specs, 1, 2, 100, 400, warn, rejoin, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// 4 racks of 3 nodes: 3 drained nodes (drain+join each) plus 6 failed
	// nodes (drain+fail+join each).
	if len(evs) != 3*2+6*3 {
		t.Fatalf("%d events, want %d", len(evs), 3*2+6*3)
	}
	drainAt := map[int]float64{}
	failAt := map[int]float64{}
	goneAt := map[int]float64{}
	var joins []NodeEvent
	for _, ev := range evs {
		switch ev.Kind {
		case NodeDrain:
			drainAt[ev.Node] = ev.At
			if _, ok := goneAt[ev.Node]; !ok {
				goneAt[ev.Node] = ev.At
			}
		case NodeFail:
			failAt[ev.Node] = ev.At
			goneAt[ev.Node] = ev.At
		case NodeJoin:
			joins = append(joins, ev)
		}
	}
	rackGone := map[string]float64{}
	//moevet:allow maporder order-independent consistency check over a set
	for id, at := range goneAt {
		rack := specs[id].Rack
		if prev, ok := rackGone[rack]; ok && prev != at {
			t.Errorf("rack %s leaves at both %v and %v", rack, prev, at)
		}
		rackGone[rack] = at
	}
	if len(rackGone) != 3 {
		t.Fatalf("storm hit %d racks, want 3", len(rackGone))
	}
	//moevet:allow maporder order-independent per-node check
	for id, at := range failAt {
		d, ok := drainAt[id]
		if !ok {
			t.Errorf("failed node %d got no warning drain", id)
			continue
		}
		if got := at - d; got != warn {
			t.Errorf("node %d warned %v ahead, want %v", id, got, warn)
		}
	}
	// Each departed node's spec rejoins rejoinDelay after it went away;
	// match joins to departures by (time, spec) multiset.
	if len(joins) != len(goneAt) {
		t.Fatalf("%d joins for %d departures", len(joins), len(goneAt))
	}
	type rejoinKey struct {
		at   float64
		rack string
	}
	want := map[rejoinKey]int{}
	for id, at := range goneAt {
		want[rejoinKey{at + rejoin, specs[id].Rack}]++
	}
	for _, ev := range joins {
		k := rejoinKey{ev.At, ev.Spec.Rack}
		if want[k] == 0 {
			t.Errorf("unexpected join %+v at %v", ev.Spec, ev.At)
			continue
		}
		want[k]--
	}
}

// TestRackStormEventsValidation covers the generator's error paths.
func TestRackStormEventsValidation(t *testing.T) {
	specs := rackedTestSpecs(t, 12, 4, 2)
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	if _, err := RackStormEvents(nil, 1, 1, 0, 10, 0, 0, rng()); err == nil {
		t.Error("empty fleet accepted")
	}
	unracked := SpecsFrom([]workload.NodeClass{workload.PaperNode()})
	if _, err := RackStormEvents(unracked, 1, 0, 0, 10, 0, 0, rng()); err == nil {
		t.Error("unracked fleet accepted")
	}
	if _, err := RackStormEvents(specs, 0, 0, 0, 10, 0, 0, rng()); err == nil {
		t.Error("zero-rack storm accepted")
	}
	if _, err := RackStormEvents(specs, -1, 2, 0, 10, 0, 0, rng()); err == nil {
		t.Error("negative drain count accepted")
	}
	if _, err := RackStormEvents(specs, 2, 2, 0, 10, 0, 0, rng()); err == nil {
		t.Error("fleet-exhausting storm accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range [][4]float64{
		{-1, 10, 0, 0}, {0, 0, 0, 0}, {0, 10, -1, 0}, {0, 10, 0, -1},
		{nan, 10, 0, 0}, {0, nan, 0, 0}, {0, 10, nan, 0}, {0, 10, 0, nan},
		{inf, 10, 0, 0}, {0, inf, 0, 0}, {0, 10, inf, 0}, {0, 10, 0, inf},
	} {
		if _, err := RackStormEvents(specs, 1, 1, w[0], w[1], w[2], w[3], rng()); err == nil {
			t.Errorf("invalid window %v accepted", w)
		}
	}
}
