package sched

import (
	"math/rand"
	"sort"
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

// TestScoredNodesStableSort pins the candidate order: lower tier first, then
// higher score, and equal tier and score keep insertion order, so constant
// scorers degrade to first fit within a tier.
func TestScoredNodesStableSort(t *testing.T) {
	var s scoredNodes
	nodes := cluster.New(cluster.DefaultConfig()).Nodes()[:6]
	tiers := []int{0, 1, 0, 0, 1, 0}
	scores := []float64{1, 9, 3, 1, 9, 2}
	for i, n := range nodes {
		s.add(n, tiers[i], scores[i])
	}
	s.heapify()
	wantIDs := []int{2, 5, 0, 3, 1, 4}
	for i, want := range wantIDs {
		if n := s.pop(); n.ID != want {
			t.Errorf("rank %d = node %d, want %d", i, n.ID, want)
		}
	}
	if len(s) != 0 {
		t.Errorf("%d candidates left after popping all", len(s))
	}
}

// TestScoredNodesPopMatchesStableSort pins best-first selection to a full
// sort: popping every candidate of a heapified buffer returns exactly
// sort.SliceStable's order by tier, then descending score, and stopping
// after k pops returns its first k. Scores come from a handful of values,
// so ties are common, and span more than any tier penalty could.
func TestScoredNodesPopMatchesStableSort(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 300
	nodes := cluster.New(cfg).Nodes()
	r := rand.New(rand.NewSource(1))
	base := []float64{-5e6, 0, 0.25, 0.5, 1, 1.2, 5e6}
	var s scoredNodes
	for trial := 0; trial < 500; trial++ {
		count := 1 + r.Intn(len(nodes))
		tiers := make([]int, count)
		scores := make([]float64, count)
		for i := range scores {
			tiers[i], scores[i] = r.Intn(3), base[r.Intn(len(base))]
		}
		fill := func() {
			s.reset()
			for i := range scores {
				s.add(nodes[i], tiers[i], scores[i])
			}
		}
		want := make([]int, count)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if tiers[a] != tiers[b] {
				return tiers[a] < tiers[b]
			}
			return scores[a] > scores[b]
		})

		fill()
		s.heapify()
		for rank, w := range want {
			if n := s.pop(); n != nodes[w] {
				t.Fatalf("trial %d: rank %d = node %d, want %d", trial, rank, n.ID, nodes[w].ID)
			}
		}

		k := r.Intn(count + 1)
		fill()
		s.heapify()
		for rank := 0; rank < k; rank++ {
			if n := s.pop(); n != nodes[want[rank]] {
				t.Fatalf("trial %d, stop at %d: rank %d = node %d, want %d", trial, k, rank, n.ID, nodes[want[rank]].ID)
			}
		}
		if len(s) != count-k {
			t.Fatalf("trial %d: %d candidates left after %d of %d pops", trial, len(s), k, count)
		}
	}
}
