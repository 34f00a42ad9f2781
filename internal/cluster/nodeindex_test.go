package cluster

import (
	"slices"
	"testing"

	"moespark/internal/workload"
)

// TestNodeIndexFollowsTouchPoints walks the node index through the changes
// that move a node in or out of its sets — a spawn that fills a node, a
// drain, a failure, a join, a grow to the fair share and an app's
// completion — and after each one compares the open set and the growable
// list with their full-scan twins and with the expected members. The
// growable list must come in app-major order even when an app's executors
// are not in node order.
func TestNodeIndexFollowsTouchPoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	c := New(cfg)
	nodes := c.Nodes()
	b := testBench(t, "SP.Pca")
	newApp := func(id int) *App {
		a := &App{
			ID: id, Job: workload.Job{Bench: b, InputGB: 400},
			RemainingGB: 400, MaxExecutors: 4, State: StateReady,
			ReadyTime: 0, StartTime: -1, DoneTime: -1,
		}
		c.apps = append(c.apps, a)
		c.active = append(c.active, a)
		return a
	}
	spawn := func(a *App, n *Node, reserveGB, itemsGB float64) *Executor {
		t.Helper()
		e, err := c.Spawn(a, n, reserveGB, itemsGB)
		if err != nil {
			t.Fatalf("spawn app %d on node %d: %v", a.ID, n.ID, err)
		}
		return e
	}
	check := func(step string, open []int, growable []string) {
		t.Helper()
		gotOpen := nodeIDs(slices.Collect(c.OpenNodes()))
		if ref := nodeIDs(slices.Collect(c.refOpenNodes())); !slices.Equal(gotOpen, ref) {
			t.Fatalf("%s: open nodes %v, reference %v", step, gotOpen, ref)
		}
		if !slices.Equal(gotOpen, open) {
			t.Errorf("%s: open nodes %v, want %v", step, gotOpen, open)
		}
		gotGrow := execIDs(c.AppendGrowable(nil))
		if ref := execIDs(c.refGrowable(nil)); !slices.Equal(gotGrow, ref) {
			t.Fatalf("%s: growable %v, reference %v", step, gotGrow, ref)
		}
		if !slices.Equal(gotGrow, growable) {
			t.Errorf("%s: growable %v, want %v", step, gotGrow, growable)
		}
	}
	check("idle fleet", []int{0, 1, 2, 3}, []string{})

	// App 0 spreads over nodes 2 then 0, app 1 sits on node 1, all below
	// their fair shares.
	a0, a1 := newApp(0), newApp(1)
	spawn(a0, nodes[2], 10, 20)
	e00 := spawn(a0, nodes[0], 10, 20)
	spawn(a1, nodes[1], 10, 20)
	check("three shrunken executors", []int{0, 1, 2, 3},
		[]string{"app 0@node 2", "app 0@node 0", "app 1@node 1"})

	// A filler leaves node 2 with 0.3 GB: enough to place on, too little to
	// grow on. Another leaves node 3 with 0.01 GB: too little for either.
	spawn(newApp(2), nodes[2], nodes[2].FreeGB()-0.3, 400)
	check("node 2 nearly full", []int{0, 1, 2, 3}, []string{"app 0@node 0", "app 1@node 1"})
	spawn(newApp(3), nodes[3], nodes[3].FreeGB()-0.01, 400)
	check("node 3 full", []int{0, 1, 2}, []string{"app 0@node 0", "app 1@node 1"})

	if err := c.Grow(e00, 12, e00.FairShareGB); err != nil {
		t.Fatal(err)
	}
	check("grown to fair share", []int{0, 1, 2}, []string{"app 1@node 1"})

	// Drain node 1 and fail node 3; a join adds node 4.
	if err := c.ScheduleNodeEvents(
		NodeEvent{At: 0, Kind: NodeDrain, Node: 1},
		NodeEvent{At: 0, Kind: NodeFail, Node: 3},
		NodeEvent{At: 0, Kind: NodeJoin},
	); err != nil {
		t.Fatal(err)
	}
	if err := c.applyNodeEvents(); err != nil {
		t.Fatal(err)
	}
	// A draining node's executors still grow; it takes no new placement.
	check("drain, fail and join", []int{0, 2, 4}, []string{"app 1@node 1"})

	// App 1 completes: its executor leaves node 1.
	a1.RemainingGB = 0 //moevet:allow settledstate hand-built app completed without an engine run
	c.completeApp(a1)
	check("app 1 done", []int{0, 2, 4}, []string{})
}
