package sched

import (
	"slices"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/workload"
)

func heteroCluster(t *testing.T, specs []cluster.NodeSpec) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewHetero(cluster.DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func placerJob(t *testing.T, gb float64) workload.Job {
	t.Helper()
	b, err := workload.Find("HB.Sort")
	if err != nil {
		t.Fatal(err)
	}
	return workload.Job{Bench: b, InputGB: gb}
}

// addReady registers job as a ready app and fails the test if the cluster
// rejects it.
func addReady(tb testing.TB, c *cluster.Cluster, job workload.Job) *cluster.App {
	tb.Helper()
	a, err := c.AddReadyApp(job)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// TestBestFitPrefersTightestNode gives one candidate less free memory: the
// best-fit placer must pick it first, while first fit (a nil placer) takes
// scan order.
func TestBestFitPrefersTightestNode(t *testing.T) {
	big := cluster.ReferenceNode()
	small := cluster.ReferenceNode()
	small.RAMGB = 40 // less free memory than the 64 GB nodes

	firstExec := func(p Placer) int {
		c := heteroCluster(t, []cluster.NodeSpec{big, big, small})
		d := NewOracle()
		d.Placer = p
		app := addReady(t, c, placerJob(t, 8)) // single-executor app
		d.Schedule(c)
		if len(app.Executors) != 1 {
			t.Fatalf("placed %d executors, want 1", len(app.Executors))
		}
		return app.Executors[0].Node.ID
	}
	if got := firstExec(nil); got != 0 {
		t.Errorf("first fit placed on node %d, want 0 (scan order)", got)
	}
	if got := firstExec(NewBestFitMemory()); got != 2 {
		t.Errorf("best fit placed on node %d, want 2 (tightest)", got)
	}
}

// TestSpeedAwarePrefersFastIdleNode puts the fastest machine last in scan
// order: the speed-aware placer must still pick it.
func TestSpeedAwarePrefersFastIdleNode(t *testing.T) {
	slow := cluster.ReferenceNode()
	slow.SpeedFactor = 0.5
	fast := cluster.ReferenceNode()
	fast.SpeedFactor = 2

	c := heteroCluster(t, []cluster.NodeSpec{slow, slow, fast})
	d := NewOracle()
	d.Placer = NewSpeedAware()
	app := addReady(t, c, placerJob(t, 8))
	d.Schedule(c)
	if len(app.Executors) != 1 {
		t.Fatalf("placed %d executors, want 1", len(app.Executors))
	}
	if got := app.Executors[0].Node.ID; got != 2 {
		t.Errorf("speed-aware placed on node %d, want 2 (the fast one)", got)
	}
}

// TestPlacerSkipsUnavailableNodes drains the only attractive node: no placer
// may place there.
func TestPlacerSkipsUnavailableNodes(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	c := cluster.New(cfg)
	if err := c.ScheduleNodeEvents(cluster.NodeEvent{At: 0, Kind: cluster.NodeDrain, Node: 0}); err != nil {
		t.Fatal(err)
	}
	d := NewOracle()
	d.Placer = NewBestFitMemory()
	res, err := c.Run([]workload.Job{placerJob(t, 8)}, d)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Apps[0]
	if a.DoneTime < 0 {
		t.Fatal("app never finished")
	}
}

// TestScoredNodesStableSort pins the candidate order placeApp sorts into:
// lower tier first, then higher score, and equal tier and score keep
// insertion order, so constant scorers degrade to first fit within a tier.
func TestScoredNodesStableSort(t *testing.T) {
	nodes := cluster.New(cluster.DefaultConfig()).Nodes()[:6]
	tiers := []int{0, 1, 0, 0, 1, 0}
	scores := []float64{1, 9, 3, 1, 9, 2}
	var s []candidate
	for i, n := range nodes {
		s = append(s, candidate{n, tiers[i], scores[i]})
	}
	slices.SortStableFunc(s, compareCandidates)
	wantIDs := []int{2, 5, 0, 3, 1, 4}
	for i, want := range wantIDs {
		if n := s[i].node; n.ID != want {
			t.Errorf("rank %d = node %d, want %d", i, n.ID, want)
		}
	}
}
