package cluster

import (
	"slices"
	"testing"

	"moespark/internal/workload"
)

// Node specs of the fleet-cap tests. Against the reference node's 55.2
// allocatable GB, a little node's spread share is 16*11.04/55.2 = 3.2 GB and
// a big node's 16*114.08/55.2 ≈ 33.07 GB.
var (
	littleSpec = NodeSpec{RAMGB: 16, Cores: 8, SpeedFactor: 1, SwapGB: 8, OSReserveGB: 4}
	bigSpec    = NodeSpec{RAMGB: 128, Cores: 32, SpeedFactor: 1.2, SwapGB: 16, OSReserveGB: 4}
)

// bigLittle builds a cluster of bigs big nodes followed by littles little
// ones.
func bigLittle(t *testing.T, cfg Config, bigs, littles int) *Cluster {
	t.Helper()
	specs := append(slices.Repeat([]NodeSpec{bigSpec}, bigs), slices.Repeat([]NodeSpec{littleSpec}, littles)...)
	c, err := NewHetero(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hog reserves all of a node's allocatable memory with a light foreign task
// that runs for workSec seconds.
func hog(t *testing.T, c *Cluster, n *Node, workSec float64) {
	t.Helper()
	if _, err := c.AddForeign(n.ID, "hog", 0.1, n.AllocatableGB(), workSec); err != nil {
		t.Fatal(err)
	}
}

// applyNow fires node events at the current instant.
func applyNow(t *testing.T, c *Cluster, evs ...NodeEvent) {
	t.Helper()
	if err := c.ScheduleNodeEvents(evs...); err != nil {
		t.Fatal(err)
	}
	if err := c.applyNodeEvents(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeFleetSize checks free-fleet sizes derived by hand on big/little
// fleets: the free size counts every available node as if it were free,
// while the admission size skips full ones, and a drain or a join resizes
// the free fleet of an app already in flight.
func TestFreeFleetSize(t *testing.T) {
	b, err := workload.Find("SP.Gmm")
	if err != nil {
		t.Fatal(err)
	}
	job := workload.Job{Bench: b, InputGB: 64}
	check := func(what string, a *App, wantCap, wantFree int) {
		t.Helper()
		if a.MaxExecutors != wantCap || a.freeFleet != wantFree {
			t.Errorf("%s: cap %d, free fleet %d; want %d and %d", what, a.MaxExecutors, a.freeFleet, wantCap, wantFree)
		}
	}

	// Two big nodes, the first fully reserved, then 24 little ones. The cap
	// skips the full node: 33.07 GB plus ten little nodes (65.07 GB) cover
	// 64 GB, so 11 executors. The free fleet counts it: two big nodes
	// (66.14 GB) cover 64 GB.
	c := bigLittle(t, DefaultConfig(), 2, 24)
	hog(t, c, c.Nodes()[0], 1e6)
	a := addReady(t, c, job)
	check("first big node full", a, 11, 2)

	// Draining the second big node leaves the full one plus the little
	// ones: 33.07 + 10*3.2 = 65.07 GB, so the free fleet is 11 too.
	applyNow(t, c, NodeEvent{Kind: NodeDrain, Node: 1})
	check("second big node drained", a, 11, 11)

	// A big node joins: it and the full one cover 64 GB again.
	applyNow(t, c, NodeEvent{Kind: NodeJoin, Spec: bigSpec})
	check("big node joined", a, 11, 2)

	// MaxExecutorNodes caps both sizes: 64 GB needs 20 little nodes, the
	// cap allows 5, and with all but four nodes reserved the cap is 4.
	capped := DefaultConfig()
	capped.MaxExecutorNodes = 5
	c = bigLittle(t, capped, 0, 24)
	for _, n := range c.Nodes()[4:] {
		hog(t, c, n, 1e6)
	}
	check("capped at 5 nodes", addReady(t, c, job), 4, 5)
}

// capRecorder runs greedyScheduler and records, at every Schedule call
// while the first app runs, its cap and the capacity of its executor list.
type capRecorder struct {
	greedyScheduler
	caps, lists []int
	overFree    int // calls that saw the cap past the free-fleet size
}

func (s *capRecorder) Schedule(c *Cluster) {
	s.greedyScheduler.Schedule(c)
	a := c.Apps()[0]
	if a.State == StateDone {
		return
	}
	s.caps = append(s.caps, a.MaxExecutors)
	s.lists = append(s.lists, cap(a.Executors))
	if a.MaxExecutors > a.freeFleet {
		s.overFree++
	}
}

// TestFleetCapGrowsToFreeFleet admits an app into a packed big/little fleet
// and frees the fleet in two steps. Three big nodes (99.2 GB) cover its
// 80 GB, so its free fleet is 3, but at admission only one little node is
// free and its cap is 1. When the little nodes free, they alone would size
// it at 20 executors; the cap stops at 3. When the big nodes free, it stays
// 3. The executor list is sized once, at the first spawn.
func TestFleetCapGrowsToFreeFleet(t *testing.T) {
	c := bigLittle(t, DefaultConfig(), 3, 20)
	for _, n := range c.Nodes()[:3] {
		hog(t, c, n, 150)
	}
	for _, n := range c.Nodes()[3:22] {
		hog(t, c, n, 50)
	}
	s := &capRecorder{}
	res, err := c.RunOpen([]Submission{{Job: testJob(t, 80)}}, s)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Apps[0]
	if a.freeFleet != 3 {
		t.Fatalf("free fleet %d, want 3", a.freeFleet)
	}
	if len(s.caps) == 0 || s.caps[0] != 1 {
		t.Fatalf("caps %v, want a cap of 1 at admission", s.caps)
	}
	if got := s.caps[len(s.caps)-1]; got != 3 {
		t.Errorf("final cap %d, want the free-fleet size 3 (caps %v)", got, s.caps)
	}
	if s.overFree > 0 {
		t.Errorf("cap passed the free-fleet size at %d events (caps %v)", s.overFree, s.caps)
	}
	// greedyScheduler spawns at the first call, before it is recorded.
	for _, l := range s.lists {
		if l != s.lists[0] {
			t.Errorf("executor list capacity changed after the first spawn: %v", s.lists)
			break
		}
	}
	if a.DoneTime <= 150 {
		t.Errorf("app done at %v, before the big nodes freed at 150 s", a.DoneTime)
	}
}

// TestFleetCapGrowsAfterRackRejoins admits an app while one of two racks
// is down: its 200 GB input wants 13 reference nodes, but only four are
// available, so its cap and free fleet are 4. When the rack rejoins, its
// free fleet is resized to 8 and its cap follows.
func TestFleetCapGrowsAfterRackRejoins(t *testing.T) {
	fleet, err := workload.UniformFleet(8, workload.PaperNode())
	if err != nil {
		t.Fatal(err)
	}
	if fleet, err = workload.AssignRacks(fleet, 2, 1); err != nil {
		t.Fatal(err)
	}
	specs := SpecsFrom(fleet)
	c, err := NewHetero(DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	var evs []NodeEvent
	for id, s := range specs {
		if s.Rack == specs[0].Rack {
			evs = append(evs, NodeEvent{At: 0, Kind: NodeDrain, Node: id},
				NodeEvent{At: 60, Kind: NodeJoin, Spec: s})
		}
	}
	if err := c.ScheduleNodeEvents(evs...); err != nil {
		t.Fatal(err)
	}
	s := &capRecorder{}
	res, err := c.RunOpen([]Submission{{Job: testJob(t, 200)}}, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.caps) == 0 || s.caps[0] != 4 {
		t.Fatalf("caps %v, want 4 at admission", s.caps)
	}
	if got := s.caps[len(s.caps)-1]; got != 8 {
		t.Errorf("final cap %d, want 8 once the rack rejoined (caps %v)", got, s.caps)
	}
	if a := res.Apps[0]; a.DoneTime <= 60 {
		t.Errorf("app done at %v, before the rack rejoined at 60 s", a.DoneTime)
	}
}
