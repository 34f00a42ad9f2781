package cluster

import (
	"slices"
	"testing"

	"moespark/internal/workload"
)

// TestNodeIndexFollowsTouchPoints walks the node index through the changes
// that move a node in or out of the open set — a foreign working set, a
// spawn that fills a node, a drain, a failure and a join — and through each
// touch point that marks a node freed for the growth query: a widenable
// spawn, a foreign completion, a removal, a charge-back from a kill on
// another node, a migration and an app's completion. After each one it
// compares the open set with its full-scan twin and the expected members,
// and the growable list with the expected executors, which must be a
// subsequence of the full-scan superset. The list names only executors whose
// grow decision can have changed since the previous query: a second query
// with nothing changed lists nothing, an executor within GrowChurn of its
// fair share is never listed, a freed node hosting only such executors lists
// nothing, and neither does a spawn that is not widenable. A removal or a
// foreign completion that leaves the node's reserved total where it was
// frees nothing and lists nothing either. The list must come in app-major
// order even when an app's executors are not in node order.
func TestNodeIndexFollowsTouchPoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	c := New(cfg)
	nodes := c.Nodes()
	b := testBench(t, "SP.Pca")
	// Every app is half done, so a kill's charge-back raises its remaining
	// work; with four slots its first fair share is 100 GB.
	newApp := func(id int) *App {
		a := &App{
			ID: id, Job: workload.Job{Bench: b, InputGB: 800},
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
	foreign := func(n *Node, memoryGB float64) *ForeignTask {
		t.Helper()
		// Work below the completion epsilon, so completeForeign finishes it.
		f, err := c.AddForeign(n.ID, "co-runner", 0.1, memoryGB, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		return f
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
		got, ref := c.TakeGrowable(nil), c.refGrowable(nil)
		i := 0
		for _, e := range ref {
			if i < len(got) && got[i] == e {
				i++
			}
		}
		if i < len(got) {
			t.Fatalf("%s: growable %v is not a subsequence of the superset %v", step, execIDs(got), execIDs(ref))
		}
		if gotGrow := execIDs(got); !slices.Equal(gotGrow, growable) {
			t.Errorf("%s: growable %v, want %v", step, gotGrow, growable)
		}
	}
	check("idle fleet", []int{0, 1, 2, 3}, []string{})

	// App 0 spreads over nodes 2 then 0, app 1 sits on node 1, each with 20
	// GB of a share of 100 GB or more: three widenable arrivals.
	a0, a1 := newApp(0), newApp(1)
	spawn(a0, nodes[2], 10, 20)
	e00 := spawn(a0, nodes[0], 10, 20)
	e11 := spawn(a1, nodes[1], 10, 20)
	check("three widenable spawns", []int{0, 1, 2, 3},
		[]string{"app 0@node 2", "app 0@node 0", "app 1@node 1"})
	check("nothing changed", []int{0, 1, 2, 3}, []string{})

	// A widenable filler leaves node 2 with 0.3 GB: enough to place on, too
	// little to grow on, so its arrival lists nothing.
	filler := spawn(newApp(2), nodes[2], nodes[2].FreeGB()-0.3, 20)
	check("node 2 nearly full", []int{0, 1, 2, 3}, []string{})

	// App 3 takes 97 GB of its 100 GB share on node 3: within GrowChurn of
	// it, so never listed.
	spawn(newApp(3), nodes[3], 10, 97)
	check("0.97 of the fair share", []int{0, 1, 2, 3}, []string{})

	// Co-runners arrive on nodes 1 and 3 (node 3 leaves the open set), then
	// finish. Each completion frees its node: node 1's widenable executor is
	// relisted, and node 3, whose only executor is not widenable, is left
	// out.
	f1, f3 := foreign(nodes[1], 5), foreign(nodes[3], nodes[3].FreeGB()-0.01)
	check("foreign arrivals", []int{0, 1, 2}, []string{})
	c.completeForeign(f1)
	c.completeForeign(f3)
	check("foreign completions", []int{0, 1, 2, 3}, []string{"app 1@node 1"})

	// A filler holding its whole fair share leaves node 3 with 0.01 GB, too
	// little to place on: node 3 leaves the open set, and the arrival, not
	// widenable, lists nothing.
	spawn(newApp(4), nodes[3], nodes[3].FreeGB()-0.01, 100)
	check("node 3 full", []int{0, 1, 2}, []string{})

	// A grow to the fair share leaves nothing to list.
	if err := c.Grow(e00, 12, e00.FairShareGB); err != nil {
		t.Fatal(err)
	}
	check("grown to fair share", []int{0, 1, 2}, []string{})

	// The filler leaves node 2, whose freed memory lets app 0 grow there.
	c.removeExecutor(filler)
	check("removal", []int{0, 1, 2}, []string{"app 0@node 2"})

	// A kill on node 0 charges work back to app 0. Node 0 has nothing left
	// to list, but the charge-back raises the remaining work that caps app
	// 0's grows, so its executor on node 2 is relisted although node 2
	// freed nothing.
	c.reclaimExecutor(e00)
	check("charge-back", []int{0, 1, 2}, []string{"app 0@node 2"})

	// An executor with no reservation, holding its whole fair share, joins
	// app 0's on node 2 and leaves again, and so does a co-runner with no
	// working set. Neither moves node 2's reserved total, so neither frees
	// anything and app 0's executor there is not relisted.
	zero := spawn(newApp(5), nodes[2], 0, 100)
	check("zero-reservation arrival", []int{0, 1, 2}, []string{})
	c.removeExecutor(zero)
	check("zero-reservation removal", []int{0, 1, 2}, []string{})
	idle := foreign(nodes[2], 0)
	check("co-runner without a working set", []int{0, 1, 2}, []string{})
	c.completeForeign(idle)
	check("its completion", []int{0, 1, 2}, []string{})

	// Drain node 1 and fail node 3 (killing the executors of apps 3 and 4,
	// which have no survivor to relist); a join adds node 4.
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
	check("drain, fail and join", []int{0, 2, 4}, []string{})

	// App 1's executor migrates off the draining node to node 0, the first
	// node it can use: a widenable arrival.
	if !c.migrateExecutor(e11) {
		t.Fatal("app 1's executor found no migration target")
	}
	check("migration", []int{0, 2, 4}, []string{"app 1@node 0"})

	// App 1 completes: its executor leaves node 0, which hosts nothing else.
	a1.RemainingGB = 0 //moevet:allow settledstate hand-built app completed without an engine run
	c.completeApp(a1)
	check("app 1 done", []int{0, 2, 4}, []string{})
}
