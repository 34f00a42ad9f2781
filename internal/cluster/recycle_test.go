package cluster

import (
	"math"
	"slices"
	"testing"

	"moespark/internal/workload"
)

// keepingScheduler runs the whole-node test policy and keeps every executor
// it has seen, breaking the ownership rule on purpose so a test can look at
// what a kept pointer reads once the engine has freed the executor.
type keepingScheduler struct {
	fullSpeedScheduler
	kept []*Executor
}

func (s *keepingScheduler) Schedule(c *Cluster) {
	s.fullSpeedScheduler.Schedule(c)
	for _, a := range c.ActiveApps() {
		for _, e := range a.Executors {
			if !slices.Contains(s.kept, e) {
				s.kept = append(s.kept, e)
			}
		}
	}
}

// checkFreed asserts that a kept pointer to a freed executor reads the
// poison (no app, no node, NaN sizes), is on no node's or app's list and
// sits on the free list, and that Grow and Preempt refuse it.
func checkFreed(t *testing.T, c *Cluster, e *Executor) {
	t.Helper()
	sizes := []float64{e.ReservedGB, e.ItemsGB, e.NeedGB, e.ActualGB, e.Demand, e.FairShareGB}
	if e.App != nil || e.Node != nil || slices.ContainsFunc(sizes, func(x float64) bool { return !math.IsNaN(x) }) {
		t.Errorf("freed executor reads %+v, want no app, no node and NaN sizes", *e)
	}
	for _, n := range c.Nodes() {
		if slices.Contains(n.Executors, e) {
			t.Errorf("freed executor still listed on node %d", n.ID)
		}
	}
	for _, a := range c.Apps() {
		if slices.Contains(a.Executors, e) {
			t.Errorf("freed executor still listed on app %d", a.ID)
		}
	}
	if !slices.Contains(c.freeExecs, e) {
		t.Error("freed executor is not on the free list")
	}
	if err := c.Grow(e, 1, 1); err == nil {
		t.Error("Grow accepted a freed executor")
	}
	if err := c.Preempt(e, &App{Class: workload.Class{Weight: 9}}); err == nil {
		t.Error("Preempt accepted a freed executor")
	}
}

// TestFreedExecutorReadsPoison keeps a pointer across each path that frees
// an executor (app completion, OOM kill, node failure, preemption and drain
// handoff) and checks it right after the free, before any Spawn can reuse
// it: it must read the poison, never a live executor.
func TestFreedExecutorReadsPoison(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	ready := func(c *Cluster, class workload.Class) *App {
		a := addReady(t, c, testJob(t, 100))
		a.Class = class
		return a
	}
	spawn := func(t *testing.T, c *Cluster, a *App, n *Node) *Executor {
		t.Helper()
		e, err := c.Spawn(a, n, 10, 20)
		if err != nil {
			t.Fatalf("spawn app %d on node %d: %v", a.ID, n.ID, err)
		}
		return e
	}

	t.Run("completion", func(t *testing.T) {
		c := New(cfg)
		s := &keepingScheduler{}
		res, err := c.Run([]workload.Job{testJob(t, 60)}, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.kept) == 0 {
			t.Fatal("the run spawned no executor")
		}
		for _, e := range s.kept {
			checkFreed(t, c, e)
		}
		if a := res.Apps[0]; a.Executors != nil {
			t.Errorf("completed app keeps an executor list of cap %d; it goes back to the cluster", cap(a.Executors))
		}
	})

	t.Run("OOM kill", func(t *testing.T) {
		c := New(cfg)
		n := c.Nodes()[0]
		e := spawn(t, c, ready(c, workload.Class{}), n)
		// 80 GB of foreign memory alone exceeds RAM+swap (76 GB usable).
		if _, err := c.AddForeign(n.ID, "hog", 0.2, 80, 100); err != nil {
			t.Fatal(err)
		}
		c.recomputeRates()
		if c.totalOOM != 1 {
			t.Fatalf("OOM kills %d, want 1", c.totalOOM)
		}
		checkFreed(t, c, e)
	})

	t.Run("node failure", func(t *testing.T) {
		c := New(cfg)
		n := c.Nodes()[0]
		e := spawn(t, c, ready(c, workload.Class{}), n)
		c.failNode(n)
		checkFreed(t, c, e)
	})

	t.Run("preemption", func(t *testing.T) {
		one := cfg
		one.Nodes = 1
		c := New(one)
		n := c.Nodes()[0]
		victim := spawn(t, c, ready(c, batchClass), n)
		kept := spawn(t, c, ready(c, latencyClass), n)
		// Two apps per node at most: the batch executor must go.
		if got := c.PreemptFor(ready(c, latencyClass), 1, 0, 2); got != 1 {
			t.Fatalf("PreemptFor killed %d executors, want 1", got)
		}
		checkFreed(t, c, victim)
		if kept.App == nil || !slices.Contains(n.Executors, kept) {
			t.Error("the unpreemptible executor was freed too")
		}
		for _, buf := range [][]*Executor{c.victimBuf, c.bestVictimBuf} {
			if slices.Contains(buf[:cap(buf)], victim) {
				t.Error("a PreemptFor scratch buffer still holds the freed victim")
			}
		}
	})

	t.Run("handoff", func(t *testing.T) {
		c := New(cfg)
		n0, n1, n2 := c.Nodes()[0], c.Nodes()[1], c.Nodes()[2]
		a := ready(c, workload.Class{})
		moved := spawn(t, c, a, n0)
		sibling := spawn(t, c, a, n2)
		// A foreign guest fills node 1, so the drain cannot relocate the
		// executor and hands its work to the sibling instead.
		if _, err := c.AddForeign(n1.ID, "hog", 0.1, n1.AllocatableGB(), 1000); err != nil {
			t.Fatal(err)
		}
		n0.state = NodeDraining
		c.migrateFrom(n0)
		if a.Migrations != 1 || !slices.Equal(a.Executors, []*Executor{sibling}) {
			t.Fatalf("drain left app executors %v after %d migrations, want only the sibling after one handoff", a.Executors, a.Migrations)
		}
		checkFreed(t, c, moved)
		if slices.Contains(c.victimBuf[:cap(c.victimBuf)], moved) {
			t.Error("the migration snapshot still holds the freed executor")
		}
	})
}

// TestSpawnRecyclesExecutorsAndFleets checks what the next Spawn does with
// what a freed executor and a completed app leave behind: the newest freed
// executor comes back whole-struct fresh, and an app's first spawn takes a
// completed app's executor list of the same capacity.
func TestSpawnRecyclesExecutorsAndFleets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	c := New(cfg)
	n0, n1 := c.Nodes()[0], c.Nodes()[1]
	a := addReady(t, c, testJob(t, 100))
	e, err := c.Spawn(a, n0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cap(a.Executors) != a.MaxExecutors {
		t.Errorf("first spawn sized the executor list at cap %d, want MaxExecutors %d", cap(a.Executors), a.MaxExecutors)
	}
	c.failNode(n0)
	b := addReady(t, c, testJob(t, 50))
	got, err := c.Spawn(b, n1, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatal("Spawn allocated a new executor while a freed one was on the free list")
	}
	fresh := Executor{
		App: b, Node: n1, ReservedGB: 5, ItemsGB: 8, NeedGB: got.NeedGB,
		ActualGB: got.ActualGB, Demand: b.Job.Bench.CPULoad, FairShareGB: got.FairShareGB,
		cacheEff: got.cacheEff,
	}
	if *got != fresh {
		t.Errorf("recycled executor reads %+v, want a fresh spawn %+v", *got, fresh)
	}
	if len(c.freeExecs) != 0 {
		t.Errorf("%d executors left on the free list, want 0", len(c.freeExecs))
	}

	// Two equal jobs far apart: the second app's first spawn takes the
	// first app's list.
	job := testJob(t, 60)
	s := &fleetScheduler{}
	res, err := New(cfg).RunOpen([]Submission{{At: 0, Job: job}, {At: 1e5, Job: job}}, s)
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Apps[0], res.Apps[1]
	if first.DoneTime >= second.SubmitTime || first.MaxExecutors != second.MaxExecutors {
		t.Fatalf("apps overlap or differ in fleet cap (%d vs %d): the test needs neither", first.MaxExecutors, second.MaxExecutors)
	}
	if s.list[0] == nil || s.list[0] != s.list[1] {
		t.Error("the second app's first spawn did not reuse the first app's executor list")
	}
}

// fleetScheduler records the backing array of each app's executor list.
type fleetScheduler struct {
	fullSpeedScheduler
	list [2]*(*Executor)
}

func (s *fleetScheduler) Schedule(c *Cluster) {
	s.fullSpeedScheduler.Schedule(c)
	for _, a := range c.ActiveApps() {
		if a.ID < len(s.list) && s.list[a.ID] == nil && cap(a.Executors) > 0 {
			s.list[a.ID] = &a.Executors[:1][0]
		}
	}
}

// TestPackingStreamAllocsPerApp guards the executor recycling: a short
// packing stream, which spawns and frees an executor on nearly every event,
// must allocate a bounded number of objects per app. Without the free lists
// every spawn allocates an executor and every app grows its executor list
// from empty: about 88 allocations per app here, against about 8.5 with
// them.
func TestPackingStreamAllocsPerApp(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const apps = 300
	cfg, specs, subs := colocationStream(t, apps)
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		var c *Cluster
		if c, err = NewHetero(cfg, specs); err == nil {
			_, err = c.RunOpen(subs, &colocationScheduler{})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 12
	perApp := allocs / apps
	t.Logf("%.2f allocations per app", perApp)
	if perApp > bound {
		t.Errorf("packing stream allocates %.1f objects per app, want at most %d", perApp, bound)
	}
}
