package cluster

import (
	"math"
	"testing"
)

// homeScheduler places each waiting app's first executor on one fixed home
// node and never grows it: migration tests need an app that lives on exactly
// one node while another stays free as a target. When the home node has left
// the fleet (the fail branch of the warn-then-fail test) it falls back to
// the first available node, so a killed app can restart instead of stalling.
type homeScheduler struct {
	node    int
	waitBuf []*App
}

func (*homeScheduler) Name() string                       { return "pin" }
func (*homeScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s *homeScheduler) Schedule(c *Cluster) {
	s.waitBuf = c.AppendWaitingApps(s.waitBuf[:0])
	for _, app := range s.waitBuf {
		if len(app.Executors) > 0 {
			continue
		}
		var fallback *Node
		for _, n := range c.Nodes() {
			if !n.Available() {
				continue
			}
			if n.ID == s.node {
				fallback = n
				break
			}
			if fallback == nil {
				fallback = n
			}
		}
		if fallback != nil {
			c.Spawn(app, fallback, fallback.AllocatableGB(), app.RemainingGB)
		}
	}
}

// TestMigrateOnDrainEvacuates is the warn-then-fail scenario the rack storm
// generator emits: a drain lands on a busy node with a free peer, then the
// node fails shortly after. With migration the executor moves during the
// warning, the emptied node decommissions immediately, and the later fail
// event is a no-op against the decommissioned node; without it, the fail
// kills the executor and charges its partial work back.
func TestMigrateOnDrainEvacuates(t *testing.T) {
	run := func(migrate bool) *Result {
		cfg := DefaultConfig()
		cfg.Nodes = 2
		cfg.MigrateOnDrain = migrate
		c := New(cfg)
		if err := c.ScheduleNodeEvents(
			NodeEvent{At: 60, Kind: NodeDrain, Node: 0},
			NodeEvent{At: 90, Kind: NodeFail, Node: 0},
		); err != nil {
			t.Fatal(err)
		}
		subs := []Submission{{At: 0, Job: testJob(t, 200)}}
		res, err := c.RunOpen(subs, &homeScheduler{node: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Apps[0].DoneTime < 0 {
			t.Fatal("app never finished")
		}
		return res
	}

	base := run(false)
	if base.FailKills != 1 {
		t.Fatalf("without migration: fail kills = %d, want 1", base.FailKills)
	}
	if base.LostWorkGB <= 0 {
		t.Errorf("without migration: lost work = %v, want > 0 (work was in flight)", base.LostWorkGB)
	}

	mig := run(true)
	if mig.Migrations != 1 {
		t.Fatalf("with migration: migrations = %d, want 1", mig.Migrations)
	}
	if mig.FailKills != 0 {
		t.Errorf("with migration: fail kills = %d, want 0 (node was evacuated in the warning window)", mig.FailKills)
	}
	if mig.LostWorkGB != 0 {
		t.Errorf("with migration: lost work = %v, want 0", mig.LostWorkGB)
	}
	if mig.Apps[0].Migrations != 1 {
		t.Errorf("per-app migrations = %d, want 1", mig.Apps[0].Migrations)
	}
	if base.Apps[0].DoneTime <= mig.Apps[0].DoneTime {
		t.Errorf("reprocessing (%v) should finish later than migrating (%v)",
			base.Apps[0].DoneTime, mig.Apps[0].DoneTime)
	}
}

// TestMigrateEmptiedNodeDecommissions pins the drain->decommission->no-op
// chain directly: once migration empties the draining node it leaves the
// fleet the same instant, and both a later fail and a later drain against
// its ID resolve to nothing regardless of when they fire.
func TestMigrateEmptiedNodeDecommissions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.MigrateOnDrain = true
	c := New(cfg)
	if err := c.ScheduleNodeEvents(
		NodeEvent{At: 60, Kind: NodeDrain, Node: 0},
		NodeEvent{At: 61, Kind: NodeDrain, Node: 0}, // drain of a draining/removed node
		NodeEvent{At: 800, Kind: NodeFail, Node: 0}, // long after decommission
		NodeEvent{At: 900, Kind: NodeJoin, Spec: ReferenceNode()},
	); err != nil {
		t.Fatal(err)
	}
	subs := []Submission{{At: 0, Job: testJob(t, 200)}}
	res, err := c.RunOpen(subs, &homeScheduler{node: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailKills != 0 || res.Migrations != 1 {
		t.Fatalf("fail kills = %d, migrations = %d, want 0 and 1", res.FailKills, res.Migrations)
	}
	var n0 *Node
	for _, n := range c.Nodes() {
		if n.ID == 0 {
			n0 = n
		}
	}
	if got := n0.State(); got != NodeRemoved {
		t.Errorf("node 0 state = %v, want removed (evacuated drains decommission immediately)", got)
	}
	// The rejoin after decommission took a fresh ID and is a usable node.
	last := c.Nodes()[len(c.Nodes())-1]
	if last.ID == 0 || last.State() != NodeActive {
		t.Errorf("rejoined node = id %d state %v, want fresh ID and active", last.ID, last.State())
	}
}

// TestMigrateRestartPenaltyGatesCompletion checks the cost model end to end:
// a run whose only executor migrates at t=60 must finish exactly the
// migration gate later than the same run without the drain. The gate is the
// checkpoint time of the work done so far plus the fixed restart penalty,
// during which the executor sits at rate zero on an identical, empty node.
func TestMigrateRestartPenaltyGatesCompletion(t *testing.T) {
	const drainAt = 60.0
	run := func(drain bool) float64 {
		cfg := DefaultConfig()
		cfg.Nodes = 2
		cfg.MigrateOnDrain = true
		c := New(cfg)
		want := 0
		if drain {
			want = 1
			if err := c.ScheduleNodeEvents(NodeEvent{At: drainAt, Kind: NodeDrain, Node: 0}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunOpen([]Submission{{At: 0, Job: testJob(t, 200)}}, &homeScheduler{node: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrations != want {
			t.Fatalf("drain %v: migrations = %d, want %d", drain, res.Migrations, want)
		}
		return res.Apps[0].DoneTime
	}
	plain, drained := run(false), run(true)
	// Alone on a node the executor runs at one constant rate after startup,
	// so the plain run gives the work processed by the drain.
	rate := 200 / (plain - startupSec)
	gate := rate*(drainAt-startupSec)/migrateCheckpointGBps + migrateRestartSec
	if diff := drained - plain; math.Abs(diff-gate) > 1e-6 {
		t.Errorf("migration delay: done %v vs %v (diff %v), want the %v s gate", plain, drained, diff, gate)
	}
}

// TestMigrateHandoffToSibling drains a node whose executor cannot relocate
// (the app already runs on the only other node): the executor must hand its
// work off to the sibling — no charge-back, no kill — and the emptied node
// decommissions immediately, so a later fail against it is a no-op.
func TestMigrateHandoffToSibling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.MigrateOnDrain = true
	c := New(cfg)
	if err := c.ScheduleNodeEvents(
		NodeEvent{At: 60, Kind: NodeDrain, Node: 0},
		NodeEvent{At: 90, Kind: NodeFail, Node: 0},
	); err != nil {
		t.Fatal(err)
	}
	// fullSpeedScheduler lands the app on both nodes before the drain.
	res, err := c.RunOpen([]Submission{{At: 0, Job: testJob(t, 200)}}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Errorf("migrations = %d, want 1 (handoff into the sibling executor)", res.Migrations)
	}
	if res.Apps[0].DoneTime < 0 {
		t.Fatal("app never finished")
	}
	if res.LostWorkGB != 0 || res.FailKills != 0 {
		t.Errorf("lost work = %v, fail kills = %d, want 0 and 0 (handoff preserves the work)",
			res.LostWorkGB, res.FailKills)
	}
	if got := len(res.Apps[0].Executors); got != 0 {
		t.Errorf("executors left after completion = %d, want 0", got)
	}
	for _, n := range c.Nodes() {
		if n.ID == 0 && n.State() != NodeRemoved {
			t.Errorf("node 0 state = %v, want removed the instant the handoff emptied it", n.State())
		}
	}
}

// TestMigrateNoFeasibleTargetStays drains the only node in the fleet: with
// no relocation target and no sibling the executor must finish in place —
// the pre-migration drain semantics — and the node decommissions only
// afterwards.
func TestMigrateNoFeasibleTargetStays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.MigrateOnDrain = true
	c := New(cfg)
	if err := c.ScheduleNodeEvents(NodeEvent{At: 60, Kind: NodeDrain, Node: 0}); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunOpen([]Submission{{At: 0, Job: testJob(t, 200)}}, &fullSpeedScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("migrations = %d, want 0 (nowhere to go)", res.Migrations)
	}
	if res.Apps[0].DoneTime < 0 {
		t.Fatal("app never finished")
	}
	if res.LostWorkGB != 0 || res.FailKills != 0 {
		t.Errorf("lost work = %v, fail kills = %d, want 0 and 0 (drain runs work to completion)",
			res.LostWorkGB, res.FailKills)
	}
	if got := c.Nodes()[0].State(); got != NodeRemoved {
		t.Errorf("node 0 state = %v, want removed after its work finished", got)
	}
}

// TestUnblockNodeOnDepart is the blockedNodes-leak regression test: an OOM
// blacklist entry must disappear when its node leaves the fleet for good,
// whether by failure or by drain decommission. Before the unblockNode sweep
// this test fails: the per-app map kept every departed node's ID for the
// app's whole lifetime.
func TestUnblockNodeOnDepart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	c := New(cfg)
	app := addReady(t, c, testJob(t, 10))
	n1, n2 := c.Nodes()[1], c.Nodes()[2]

	app.blockNode(n1, permanentBlock)
	app.blockNode(n2, permanentBlock)
	if !app.BlockedOn(n1, c.Now()) || !app.BlockedOn(n2, c.Now()) {
		t.Fatal("blacklist entries not in effect")
	}

	c.failNode(n1)
	if _, ok := app.blockedNodes[n1.ID]; ok {
		t.Errorf("failed node %d still in blockedNodes: the map leaks", n1.ID)
	}

	// Drain path: an idle draining node decommissions on the next sweep.
	n2.state = NodeDraining
	c.draining = append(c.draining, n2)
	c.completeDrains()
	if n2.State() != NodeRemoved {
		t.Fatalf("node %d state = %v, want removed", n2.ID, n2.State())
	}
	if _, ok := app.blockedNodes[n2.ID]; ok {
		t.Errorf("decommissioned node %d still in blockedNodes: the map leaks", n2.ID)
	}
}

// TestBlacklistRetryBudget checks the deterministic backoff policy: with a
// budget of 2 and the 240s base cool-off the first entry expires after 240s,
// the second after 480s, and the third is permanent; a zero budget is the
// legacy permanent blacklist from the first OOM on.
func TestBlacklistRetryBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.OOMRetryBudget = 2
	c := New(cfg)
	app := addReady(t, c, testJob(t, 10))
	n := c.Nodes()[0]

	u1 := c.blacklistUntil(app)
	if u1 != 240 {
		t.Errorf("first entry expires at %v, want 240", u1)
	}
	app.blockNode(n, u1)
	if !app.BlockedOn(n, 239) {
		t.Error("entry should block before its expiry")
	}
	if app.BlockedOn(n, 240) {
		t.Error("entry should stop blocking at its expiry")
	}

	if u2 := c.blacklistUntil(app); u2 != 480 {
		t.Errorf("second entry expires at %v, want 480 (doubled cool-off)", u2)
	}
	if u3 := c.blacklistUntil(app); !math.IsInf(u3, 1) {
		t.Errorf("third entry = %v, want permanent (+Inf): budget of 2 is spent", u3)
	}
	if app.OOMRetries != 2 || c.totalRetries != 2 {
		t.Errorf("retries consumed = %d/%d, want 2/2 (the permanent entry consumes none)",
			app.OOMRetries, c.totalRetries)
	}

	legacy := New(func() Config { cfg := DefaultConfig(); cfg.Nodes = 1; return cfg }())
	lapp := addReady(t, legacy, testJob(t, 10))
	if u := legacy.blacklistUntil(lapp); !math.IsInf(u, 1) {
		t.Errorf("zero budget: entry = %v, want permanent (+Inf)", u)
	}
}
