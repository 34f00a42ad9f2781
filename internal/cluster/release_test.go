package cluster

import (
	"slices"
	"testing"

	"moespark/internal/workload"
)

// Direct accounting: a completed foreign task's working set leaves both
// memory sums.
func TestReleaseForeignMemFreesWorkingSet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := New(cfg)
	f, err := c.AddForeign(0, "hog", 0.3, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes()[0]
	if n.ActualGB() != 40 || n.ReservedGB() != 40 {
		t.Fatalf("running foreign task must be resident (actual %v reserved %v)", n.ActualGB(), n.ReservedGB())
	}
	//moevet:allow settledstate flipping completion directly to probe ReservedGB/ActualGB accounting
	f.done = true
	c.nodeChanged(n)
	if n.ActualGB() != 0 || n.ReservedGB() != 0 {
		t.Errorf("after completion actual %v reserved %v, want 0", n.ActualGB(), n.ReservedGB())
	}
}

// pinScheduler spawns every waiting app once on node 0 with a fixed
// reservation, so the paging arithmetic of the regression test below is
// fully controlled.
type pinScheduler struct {
	reserveGB float64
}

func (pinScheduler) Name() string                       { return "test-pin" }
func (pinScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s pinScheduler) Schedule(c *Cluster) {
	for _, app := range c.WaitingApps() {
		if len(app.Executors) == 0 {
			_, _ = c.Spawn(app, c.Nodes()[0], s.reserveGB, app.RemainingGB)
		}
	}
}

// Regression: a big co-runner pushes the node over the pressure watermark;
// once it completes, the node un-pages and the surviving executor speeds up.
// The app must therefore finish sooner than next to a co-runner that
// outlives it. The co-runner has no CPU load, so its completion frees only
// memory: the speed-up is the un-paging alone.
func TestReleaseForeignMemUnpagesNode(t *testing.T) {
	b, err := workload.Find("BDB.PageRank") // log family: footprint >> reservation
	if err != nil {
		t.Fatal(err)
	}
	run := func(hogSec float64) (appDone, trailingActual float64) {
		cfg := DefaultConfig()
		cfg.Nodes = 1
		c := New(cfg)
		// 45 GB working set + the executor's ~11.5 GB residency exceeds the
		// 55.2 GB watermark, so the node pages while the hog lives.
		if _, err := c.AddForeign(0, "hog", 0, 45, hogSec); err != nil {
			t.Fatal(err)
		}
		res, err := c.RunOpen([]Submission{{At: 0, Job: workload.Job{Bench: b, InputGB: 16}}},
			pinScheduler{reserveGB: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res.Apps[0].DoneTime, c.Nodes()[0].ActualGB()
	}
	shortDone, shortActual := run(200)
	longDone, _ := run(1e6)
	if longDone >= 1e6 {
		t.Fatalf("app done at %v s: the long co-runner must outlive it", longDone)
	}
	if shortDone <= 200 {
		t.Fatalf("app done at %v s: it must outlive the short co-runner", shortDone)
	}
	if shortActual != 0 {
		t.Errorf("completed hog must free its set, ActualGB = %v", shortActual)
	}
	// Without the release both runs page to the end and finish within an
	// ulp of each other, so require a clear margin.
	if shortDone > 0.9*longDone {
		t.Errorf("un-paged node must finish markedly sooner: %v s after the co-runner left vs %v s beside it", shortDone, longDone)
	}
}

// Fleet sizing must read the specs of nodes actually free at admission: a
// little-node fleet needs far more executors than the reference formula
// assumes, a big-node fleet fewer, and unavailable nodes don't count.
func TestFleetAwareSizing(t *testing.T) {
	b, err := workload.Find("SP.Gmm")
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{Bench: b, InputGB: 64}
	mkCluster := func(spec NodeSpec, nodes int) *Cluster {
		specs := make([]NodeSpec, nodes)
		for i := range specs {
			specs[i] = spec
		}
		c, err := NewHetero(DefaultConfig(), specs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	little := NodeSpec{RAMGB: 16, Cores: 8, SpeedFactor: 1, SwapGB: 8, OSReserveGB: 4}
	big := NodeSpec{RAMGB: 128, Cores: 32, SpeedFactor: 1.2, SwapGB: 16, OSReserveGB: 4}

	// Little nodes: each contributes 16 GB scaled by 11.04/55.2 allocatable
	// = 3.2 GB, so 64 GB needs 20 of them (the reference formula would
	// start 4).
	if got := addReady(t, mkCluster(little, 24), job).MaxExecutors; got != 20 {
		t.Errorf("sizing on little fleet: %d executors, want 20", got)
	}
	// Big nodes: each contributes 16 * 114.08/55.2 ≈ 33 GB, so 2 executors
	// cover 64 GB (the reference formula would start 4).
	if got := addReady(t, mkCluster(big, 24), job).MaxExecutors; got != 2 {
		t.Errorf("sizing on big fleet: %d executors, want 2", got)
	}
	// Unavailable nodes are not free at admission: with only 10 little
	// nodes placeable, the fleet caps there.
	c := mkCluster(little, 24)
	for i, n := range c.Nodes() {
		if i >= 10 {
			n.state = NodeDraining
		}
	}
	if got := addReady(t, c, job).MaxExecutors; got != 10 {
		t.Errorf("sizing with 10 free nodes: %d executors, want 10", got)
	}

	// Mixed fleets: the walk must take the largest shares first, whatever
	// the scan order. A big node's share is 33.07 GB, a little one's 3.2 GB.
	mkFleet := func(cfg Config, specs ...[]NodeSpec) *Cluster {
		var all []NodeSpec
		for _, s := range specs {
			all = append(all, s...)
		}
		c, err := NewHetero(cfg, all)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	repeat := func(spec NodeSpec, n int) []NodeSpec {
		specs := make([]NodeSpec, n)
		for i := range specs {
			specs[i] = spec
		}
		return specs
	}
	cfg := DefaultConfig()

	// 20 little nodes scanned before one big one: the big node plus three
	// little ones (42.67 GB) cover 40 GB, so 4 executors. Summing in scan
	// order would take 13 little nodes.
	job40 := workload.Job{Bench: b, InputGB: 40}
	if got := addReady(t, mkFleet(cfg, repeat(little, 20), repeat(big, 1)), job40).MaxExecutors; got != 4 {
		t.Errorf("little nodes before a big one: %d executors, want 4", got)
	}

	// A big node joining a little fleet is used first: 33.07 GB plus ten
	// little nodes (65.07 GB) cover 64 GB, so 11 executors instead of 20.
	c = mkFleet(cfg, repeat(little, 24))
	if err := c.ScheduleNodeEvents(NodeEvent{At: 0, Kind: NodeJoin, Spec: big}); err != nil {
		t.Fatal(err)
	}
	if err := c.applyNodeEvents(); err != nil {
		t.Fatal(err)
	}
	if got := addReady(t, c, job).MaxExecutors; got != 11 {
		t.Errorf("big node joined a little fleet: %d executors, want 11", got)
	}

	// Nodes with MinChunkGB or less free are skipped: with two of three big
	// nodes reserved down (one fully, one to half of MinChunkGB), the third
	// plus ten little nodes size the fleet at 11 executors, not 2.
	c = mkFleet(cfg, repeat(big, 3), repeat(little, 24))
	for i, keep := range []float64{0, MinChunkGB / 2} {
		n := c.Nodes()[i]
		if _, err := c.AddForeign(n.ID, "hog", 0.1, n.AllocatableGB()-keep, 1000); err != nil {
			t.Fatal(err)
		}
		if n.FreeGB() > MinChunkGB {
			t.Fatalf("node %d: %v GB free after reserving, want at most %v", n.ID, n.FreeGB(), MinChunkGB)
		}
	}
	if got := addReady(t, c, job).MaxExecutors; got != 11 {
		t.Errorf("two big nodes reserved down: %d executors, want 11", got)
	}

	// Equal shares: mid and fast have the same usable memory (28 GB, so a
	// 7.47 GB share each) but different cores and speed. They rank ahead of
	// the little nodes in node order, a joiner after its equals, and 3 of
	// them cover 20 GB (22.4 GB).
	mid := NodeSpec{RAMGB: 32, Cores: 8, SpeedFactor: 1, SwapGB: 8, OSReserveGB: 4}
	fast := NodeSpec{RAMGB: 32, Cores: 16, SpeedFactor: 1.5, SwapGB: 16, OSReserveGB: 4}
	c = mkFleet(cfg, []NodeSpec{little, mid, fast, little, fast, mid})
	if err := c.ScheduleNodeEvents(NodeEvent{At: 0, Kind: NodeJoin, Spec: mid}); err != nil {
		t.Fatal(err)
	}
	if err := c.applyNodeEvents(); err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, e := range c.bySpread {
		order = append(order, e.node.ID)
	}
	if want := []int{1, 2, 4, 5, 6, 0, 3}; !slices.Equal(order, want) {
		t.Errorf("spread order %v, want %v", order, want)
	}
	if got := addReady(t, c, workload.Job{Bench: b, InputGB: 20}).MaxExecutors; got != 3 {
		t.Errorf("equal shares: %d executors, want 3", got)
	}

	// The MaxExecutorNodes cap ends the walk before the input is covered:
	// 64 GB needs 20 little nodes, the cap allows 5.
	capped := DefaultConfig()
	capped.MaxExecutorNodes = 5
	if got := addReady(t, mkFleet(capped, repeat(little, 24)), job).MaxExecutors; got != 5 {
		t.Errorf("capped at 5 nodes: %d executors, want 5", got)
	}

	// No eligible node (one fully reserved, the rest draining) falls back to
	// the reference formula: ceil(64/16) = 4.
	c = mkFleet(cfg, repeat(big, 1), repeat(little, 3))
	if _, err := c.AddForeign(0, "hog", 0.1, c.Nodes()[0].AllocatableGB(), 1000); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes()[1:] {
		n.state = NodeDraining
	}
	if got := addReady(t, c, job).MaxExecutors; got != 4 {
		t.Errorf("no eligible node: %d executors, want 4", got)
	}
}
