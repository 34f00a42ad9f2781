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

// TestFirstFitMatchesNilPlacer runs a full seeded mix under the nil
// (historical) placer and the explicit first-fit placer: results must be
// bit-identical, which is the contract the default rides on.
func TestFirstFitMatchesNilPlacer(t *testing.T) {
	sc, err := workload.ScenarioByLabel("L8")
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.RandomMix(sc, rand.New(rand.NewSource(3)))
	run := func(p Placer) *cluster.Result {
		d := NewOracle()
		d.Placer = p
		c := cluster.New(cluster.DefaultConfig())
		res, err := c.Run(mix, d)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(nil), run(NewFirstFit())
	if a.MakespanSec != b.MakespanSec {
		t.Errorf("makespan %v vs %v", a.MakespanSec, b.MakespanSec)
	}
	for i := range a.Apps {
		if a.Apps[i].DoneTime != b.Apps[i].DoneTime {
			t.Errorf("app %d done %v vs %v", i, a.Apps[i].DoneTime, b.Apps[i].DoneTime)
		}
	}
}

// TestBestFitPrefersTightestNode gives one candidate less free memory: the
// best-fit placer must pick it first, while first fit takes scan order.
func TestBestFitPrefersTightestNode(t *testing.T) {
	big := cluster.ReferenceNode()
	small := cluster.ReferenceNode()
	small.RAMGB = 40 // less free memory than the 64 GB nodes

	firstExec := func(p Placer) int {
		c := heteroCluster(t, []cluster.NodeSpec{big, big, small})
		d := NewOracle()
		d.Placer = p
		app := c.AddReadyApp(placerJob(t, 8)) // single-executor app
		d.Schedule(c)
		if len(app.Executors) != 1 {
			t.Fatalf("placed %d executors, want 1", len(app.Executors))
		}
		return app.Executors[0].Node.ID
	}
	if got := firstExec(NewFirstFit()); got != 0 {
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
	app := c.AddReadyApp(placerJob(t, 8))
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

// TestScoredNodesStableSort pins the tie-break: equal scores keep insertion
// order, so constant scorers degrade to first fit.
func TestScoredNodesStableSort(t *testing.T) {
	var s scoredNodes
	nodes := make([]*cluster.Node, 5)
	c := cluster.New(cluster.DefaultConfig())
	copy(nodes, c.Nodes()[:5])
	scores := []float64{1, 3, 1, 3, 2}
	for i, n := range nodes {
		s.add(n, scores[i])
	}
	s.heapify()
	wantIDs := []int{1, 3, 4, 0, 2}
	for i, want := range wantIDs {
		if n := s.pop(); n.ID != want {
			t.Errorf("rank %d = node %d, want %d", i, n.ID, want)
		}
	}
	if len(s.nodes) != 0 {
		t.Errorf("%d candidates left after popping all", len(s.nodes))
	}
}

// TestScoredNodesPopMatchesStableSort pins best-first selection to the full
// sort it replaced: popping every candidate of a heapified buffer returns
// exactly sort.SliceStable's descending order, and stopping after k pops
// returns its first k. Scores come from a handful of values spread over
// class-penalty tiers, so ties are common.
func TestScoredNodesPopMatchesStableSort(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 300
	nodes := cluster.New(cfg).Nodes()
	r := rand.New(rand.NewSource(1))
	base := []float64{0, 0.25, 0.5, 1, 1.2}
	var s scoredNodes
	for trial := 0; trial < 500; trial++ {
		count := 1 + r.Intn(len(nodes))
		scores := make([]float64, count)
		for i := range scores {
			scores[i] = base[r.Intn(len(base))] - float64(r.Intn(3))*classPenalty
		}
		fill := func() {
			s.reset()
			for i, sc := range scores {
				s.add(nodes[i], sc)
			}
		}
		want := make([]int, count)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return scores[want[i]] > scores[want[j]] })

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
		if len(s.nodes) != count-k {
			t.Fatalf("trial %d: %d candidates left after %d of %d pops", trial, len(s.nodes), k, count)
		}
	}
}
