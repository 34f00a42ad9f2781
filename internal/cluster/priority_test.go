package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"moespark/internal/workload"
)

var (
	batchClass   = workload.Class{Name: "batch", Weight: 1, Preemptible: true}
	latencyClass = workload.Class{Name: "latency", Weight: 4}
)

// TestWeightedAdmissionOrder submits a batch and a latency-sensitive job at
// the same instant: the higher-weight class must be admitted and scheduled
// first (weighted FCFS), so the latency job starts before the batch job on a
// one-node cluster.
func TestWeightedAdmissionOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	subs := []Submission{
		{At: 0, Job: testJob(t, 10), Class: batchClass},
		{At: 0, Job: testJob(t, 10), Class: latencyClass},
	}
	res, err := c.RunOpen(subs, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Apps[0].Class.Name; got != "latency" {
		t.Fatalf("first admitted app is %q, want the higher-weight latency class", got)
	}
	lat, batch := res.Apps[0], res.Apps[1]
	if lat.WaitSec() >= batch.WaitSec() {
		t.Errorf("latency waited %.1fs, batch %.1fs: weighted FCFS must start the heavy class first",
			lat.WaitSec(), batch.WaitSec())
	}
}

// TestUntaggedSubmissionsKeepFCFS pins the single-class path: without class
// tags, simultaneous submissions keep their original order exactly as before
// priority classes existed.
func TestUntaggedSubmissionsKeepFCFS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	subs := []Submission{
		{At: 0, Job: testJob(t, 10)},
		{At: 0, Job: testJob(t, 5)},
	}
	res, err := c.RunOpen(subs, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].Job.InputGB != 10 || res.Apps[1].Job.InputGB != 5 {
		t.Errorf("untagged simultaneous submissions reordered: %v then %v GB",
			res.Apps[0].Job.InputGB, res.Apps[1].Job.InputGB)
	}
}

// TestPreemptChargeback preempts an executor directly: the kill must reuse
// the reclaimExecutor charge-back (remaining work restored), count in
// App.PreemptKills and the cluster total, and validate class rules.
func TestPreemptChargeback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	n := c.Nodes()[0]

	victim := addReady(t, c, testJob(t, 30))
	victim.Class = batchClass
	e, err := c.Spawn(victim, n, 40, 30)
	if err != nil {
		t.Fatal(err)
	}
	hi := addReady(t, c, testJob(t, 10))
	hi.Class = latencyClass

	// Rule checks before the kill.
	if err := c.Preempt(e, victim); !errors.Is(err, ErrNoPriority) {
		t.Errorf("self-preemption: err = %v, want ErrNoPriority", err)
	}
	peer := addReady(t, c, testJob(t, 10))
	peer.Class = batchClass
	if err := c.Preempt(e, peer); !errors.Is(err, ErrNoPriority) {
		t.Errorf("equal-weight preemption: err = %v, want ErrNoPriority", err)
	}

	if err := c.Preempt(e, hi); err != nil {
		t.Fatal(err)
	}
	if victim.PreemptKills != 1 || c.totalPreemptKills != 1 {
		t.Errorf("preempt kills = %d/%d, want 1/1", victim.PreemptKills, c.totalPreemptKills)
	}
	if len(victim.Executors) != 0 || len(n.Executors) != 0 {
		t.Error("victim executor not removed")
	}
	if victim.State != StateReady {
		t.Errorf("victim state = %v, want ready (back to the queue)", victim.State)
	}
	if victim.RemainingGB != 30 {
		t.Errorf("victim remaining = %v GB, want the full 30 charged back", victim.RemainingGB)
	}

	// A non-preemptible victim must be refused.
	prot := addReady(t, c, testJob(t, 10))
	prot.Class = workload.Class{Name: "prod", Weight: 2}
	pe, err := c.Spawn(prot, n, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preempt(pe, hi); !errors.Is(err, ErrNotPreemptible) {
		t.Errorf("non-preemptible victim: err = %v, want ErrNotPreemptible", err)
	}
}

// TestPreemptForFreesOneNode packs two nodes with preemptible batch work and
// asks for room: PreemptFor must free the target memory on a single node
// with the fewest kills, newest first, and report zero kills when a node
// already fits.
func TestPreemptForFreesOneNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := New(cfg)
	n0, n1 := c.Nodes()[0], c.Nodes()[1]

	// Node 0: two batch executors (20 GB + 30 GB). Node 1: one 50 GB batch
	// executor.
	b1 := addReady(t, c, testJob(t, 30))
	b1.Class = batchClass
	if _, err := c.Spawn(b1, n0, 20, 10); err != nil {
		t.Fatal(err)
	}
	b2 := addReady(t, c, testJob(t, 30))
	b2.Class = batchClass
	if _, err := c.Spawn(b2, n0, 30, 10); err != nil {
		t.Fatal(err)
	}
	b3 := addReady(t, c, testJob(t, 30))
	b3.Class = batchClass
	if _, err := c.Spawn(b3, n1, 50, 10); err != nil {
		t.Fatal(err)
	}

	hi := addReady(t, c, testJob(t, 10))
	hi.Class = latencyClass

	// Allocatable per node is 0.92*60 = 55.2 GB; node 0 has 5.2 free, node 1
	// has 5.2 free. Asking for 30 GB: node 0 reaches it by killing only its
	// newest executor (30 GB), node 1 needs its whole 50 GB executor — both
	// are one kill, so scan order picks node 0 and its newest victim.
	if got := c.PreemptFor(hi, 30, 0, 0); got != 1 {
		t.Fatalf("PreemptFor killed %d, want 1", got)
	}
	if b2.PreemptKills != 1 {
		t.Errorf("newest victim on node 0 should die; kills: b1=%d b2=%d b3=%d",
			b1.PreemptKills, b2.PreemptKills, b3.PreemptKills)
	}
	if free := n0.FreeGB(); free < 30 {
		t.Errorf("node 0 free = %.1f GB after preemption, want >= 30", free)
	}
	// Now a node fits: further calls must be no-ops.
	if got := c.PreemptFor(hi, 30, 0, 0); got != 0 {
		t.Errorf("PreemptFor killed %d with room already free, want 0", got)
	}
	// An oversized demand clamps per node and degrades to a whole-node
	// takeover: node 0 empties with one more kill (its last 20 GB executor),
	// never more.
	if got := c.PreemptFor(hi, 10_000, 0, 0); got != 1 {
		t.Errorf("PreemptFor killed %d for an oversized demand, want 1 (whole-node takeover)", got)
	}
	if b1.PreemptKills != 1 || len(n0.Executors) != 0 {
		t.Errorf("takeover should empty node 0: b1 kills=%d, %d executors left",
			b1.PreemptKills, len(n0.Executors))
	}
	if c.totalPreemptKills != 2 {
		t.Errorf("total preempt kills = %d, want 2", c.totalPreemptKills)
	}
}

// TestPreemptForOpensAppSlot pins the per-node app-cap constraint: with
// MaxAppsPerNode-style caps, a node can be memory-rich yet slot-starved, and
// PreemptFor must free a slot rather than report the node as already
// satisfying.
func TestPreemptForOpensAppSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	n := c.Nodes()[0]
	b1 := addReady(t, c, testJob(t, 10))
	b1.Class = batchClass
	if _, err := c.Spawn(b1, n, 5, 10); err != nil {
		t.Fatal(err)
	}
	b2 := addReady(t, c, testJob(t, 10))
	b2.Class = batchClass
	if _, err := c.Spawn(b2, n, 5, 10); err != nil {
		t.Fatal(err)
	}
	hi := addReady(t, c, testJob(t, 10))
	hi.Class = latencyClass
	// Plenty of memory free (45.2 GB) but both app slots taken under a
	// pairwise-style cap of 2: one kill must open a slot.
	if got := c.PreemptFor(hi, 10, 0, 2); got != 1 {
		t.Fatalf("PreemptFor killed %d under an app cap, want 1", got)
	}
	if n.AppCount() != 1 {
		t.Errorf("app count = %d after slot preemption, want 1", n.AppCount())
	}
	// With a free slot the same call is a no-op.
	if got := c.PreemptFor(hi, 10, 0, 2); got != 0 {
		t.Errorf("PreemptFor killed %d with a slot free, want 0", got)
	}
}

// TestGrowRejectsReservationShrink is the regression test for the admission
// bypass: Grow used to accept a negative reservation delta, silently
// shrinking ReservedGB below the executor's admitted footprint.
func TestGrowRejectsReservationShrink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	app := addReady(t, c, testJob(t, 20))
	e, err := c.Spawn(app, c.Nodes()[0], 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Grow(e, 20, 12); !errors.Is(err, ErrShrinkReservation) {
		t.Errorf("reservation shrink: err = %v, want ErrShrinkReservation", err)
	}
	if e.ReservedGB != 30 || e.ItemsGB != 10 {
		t.Errorf("failed Grow mutated the executor: reserve %v items %v", e.ReservedGB, e.ItemsGB)
	}
	// Same reservation with more items stays legal.
	if err := c.Grow(e, 30, 12); err != nil {
		t.Errorf("non-shrinking Grow rejected: %v", err)
	}
}

// foreignInjector adds a foreign co-runner to node 1 at the first scheduling
// event after the clock started moving, modelling a mid-run driver.
type foreignInjector struct {
	inner fullSpeedScheduler
	task  *ForeignTask
	err   error
}

func (s *foreignInjector) Name() string                       { return "foreign-injector" }
func (s *foreignInjector) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s *foreignInjector) Schedule(c *Cluster) {
	if s.task == nil && s.err == nil && c.Now() >= 1 {
		s.task, s.err = c.AddForeign(1, "parsec-canneal", 0.3, 2, 30)
	}
	s.inner.Schedule(c)
}

// TestAddForeignMidRunStartTime is the regression test for the hard-coded
// StartTime: a foreign task added while the clock is at t must record t, not
// 0.
func TestAddForeignMidRunStartTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := New(cfg)
	inj := &foreignInjector{}
	res, err := c.Run([]workload.Job{testJob(t, 40)}, inj)
	if err != nil {
		t.Fatal(err)
	}
	if inj.err != nil {
		t.Fatal(inj.err)
	}
	if inj.task == nil {
		t.Fatal("driver never injected the foreign task")
	}
	if inj.task.StartTime < 1 {
		t.Errorf("mid-run foreign task StartTime = %v, want the injection clock (>= 1, not the hard-coded 0)", inj.task.StartTime)
	}
	if inj.task.DoneTime <= inj.task.StartTime {
		t.Errorf("foreign task done at %v, before its start %v", inj.task.DoneTime, inj.task.StartTime)
	}
	if res.MakespanSec < inj.task.DoneTime {
		t.Errorf("makespan %v excludes the foreign completion %v", res.MakespanSec, inj.task.DoneTime)
	}
}

// TestDrainThenLaterEventCompletes pins the timing-independence of event
// scripts: a drain followed by a later fail of the same node must not abort
// the run when the node happens to empty (and decommission) first.
func TestDrainThenLaterEventCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := New(cfg)
	if err := c.ScheduleNodeEvents(
		NodeEvent{At: 1, Kind: NodeDrain, Node: 0},
		NodeEvent{At: 10_000, Kind: NodeFail, Node: 0}, // fires long after the drain completed
	); err != nil {
		t.Fatal(err)
	}
	// Keep the run alive past the late event with a long foreign task on the
	// surviving node.
	if _, err := c.AddForeign(1, "parsec-ferret", 0.4, 2, 11_000); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run([]workload.Job{testJob(t, 20)}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatalf("run aborted by a fail event against the decommissioned node: %v", err)
	}
	if got := c.Nodes()[0].State(); got != NodeRemoved {
		t.Errorf("node 0 state = %v, want removed (the stale fail must be a no-op)", got)
	}
	if res.FailKills != 0 {
		t.Errorf("fail kills = %d, want 0", res.FailKills)
	}
}

// TestNewPanicsOnInvalidConfig is the regression test for the swallowed
// constructor error: New used to return a zero-node cluster that later died
// with a misleading "simulation stalled" message.
func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New with zero nodes did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "node spec") {
			t.Errorf("panic %q does not name the real cause", msg)
		}
	}()
	New(Config{})
}

// TestDrainDecommissionWaitsForForeign pins the full drain lifecycle: a
// draining node leaves the fleet only after its last executor AND foreign
// task finish, with StateTime stamped at the decommission instant; a drained
// idle node decommissions at the drain itself.
func TestDrainDecommissionWaitsForForeign(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	c := New(cfg)
	if _, err := c.AddForeign(0, "parsec-ferret", 0.4, 2, 120); err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleNodeEvents(
		NodeEvent{At: 1, Kind: NodeDrain, Node: 0},
		NodeEvent{At: 5, Kind: NodeDrain, Node: 2}, // node 2 stays idle
	); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run([]workload.Job{testJob(t, 20)}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	n0, n2 := c.Nodes()[0], c.Nodes()[2]
	if n0.State() != NodeRemoved {
		t.Fatalf("busy drained node state = %v, want removed after work finished", n0.State())
	}
	foreignDone := res.Foreign[0].DoneTime
	if n0.StateTime < foreignDone {
		t.Errorf("node 0 decommissioned at %v, before its foreign task finished at %v", n0.StateTime, foreignDone)
	}
	if n2.State() != NodeRemoved {
		t.Fatalf("idle drained node state = %v, want removed immediately", n2.State())
	}
	if n2.StateTime < 5 || n2.StateTime > 5.1 {
		t.Errorf("idle drained node decommissioned at %v, want ~5 (the drain instant)", n2.StateTime)
	}
	// A later event against a decommissioned node is a no-op, not an error:
	// whether the drain completes before the event fires depends on workload
	// timing, which must not decide a run's validity.
	if err := c.ScheduleNodeEvents(NodeEvent{At: 0, Kind: NodeFail, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.applyNodeEvents(); err != nil {
		t.Errorf("fail event against a removed node errored: %v", err)
	}
	if n2.State() != NodeRemoved {
		t.Errorf("no-op event changed the removed node's state to %v", n2.State())
	}
}
