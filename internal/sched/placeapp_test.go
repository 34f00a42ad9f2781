package sched

import (
	"math/rand"
	"sort"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/workload"
)

// walkClasses are the tenant weights of the placement-walk fixture: each
// class outranks the ones before it.
var walkClasses = []workload.Class{
	{Name: "batch", Weight: 1, Preemptible: true},
	{Name: "mid", Weight: 2, Preemptible: true},
	{Name: "latency", Weight: 4},
}

// walkFixture builds a seeded 64-node big/little fleet for d and the apps
// to place on it, one per class and cap. Resident apps of every class hold
// one to three executors on about half the nodes, so a placed app meets
// nodes its class penalises one to three co-runners deep. Foreign CPU hogs
// fail the CPU rule on some open nodes, d's per-node app cap fails crowded
// ones, a few residents leave their node too little memory for any plan,
// and half the apps already hold an executor on one node, which fails
// App.CanUse there. Each class gets a cap of 2, which the penalty-free
// nodes fill, and one of 40, which they cannot.
func walkFixture(t *testing.T, seed int64, d *Dispatcher) (*cluster.Cluster, []*cluster.App) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	fleet, err := workload.BimodalFleet(64, workload.BigNode(), workload.LittleNode(), 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	c := heteroCluster(t, cluster.SpecsFrom(fleet))
	cat := workload.Catalog()
	job := func() workload.Job {
		return workload.Job{Bench: cat[r.Intn(len(cat))], InputGB: 20 + r.Float64()*300}
	}
	residents := make([]*cluster.App, 9)
	for i := range residents {
		residents[i] = addReady(t, c, job())
		residents[i].Class = walkClasses[i%len(walkClasses)]
		residents[i].MaxExecutors = len(c.Nodes())
	}
	for _, n := range c.Nodes() {
		switch x := r.Float64(); {
		case x < 0.1:
			if _, err := c.AddForeign(n.ID, "hog", n.CPUCapacity(), 0, 1e6); err != nil {
				t.Fatal(err)
			}
		case x < 0.55:
			for _, i := range r.Perm(len(residents))[:1+r.Intn(3)] {
				reserve := n.FreeGB() * (0.05 + 0.3*r.Float64())
				if r.Intn(8) == 0 && n.FreeGB() > 1 {
					reserve = n.FreeGB() - 0.06 // open, but no plan fits
				}
				if _, err := c.Spawn(residents[i], n, reserve, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var apps []*cluster.App
	for _, cap := range []int{2, 40} {
		for _, class := range walkClasses {
			a := addReady(t, c, job())
			a.Class = class
			d.Prepare(c, a)
			a.MaxExecutors = cap
			if r.Intn(2) == 0 {
				n := c.Nodes()[r.Intn(len(c.Nodes()))]
				if _, err := c.Spawn(a, n, 0.1*n.FreeGB(), 1); err != nil {
					t.Fatal(err)
				}
			}
			apps = append(apps, a)
		}
	}
	return c, apps
}

// refPlaceApp is placeApp's reference: it gathers every node that passes
// App.CanUse and the dispatcher's admission, scores each with d's placer (0
// for a nil one), stable-sorts them by descending score and spawns in that
// order until the fleet is full. It returns the scores of the nodes it
// tried and of those it never reached.
func refPlaceApp(d *Dispatcher, c *cluster.Cluster, app *cluster.App) (tried, left []float64) {
	if !wantsExecutor(app) {
		return nil, nil
	}
	var nodes []*cluster.Node
	var scores []float64
	for _, n := range c.Nodes() {
		if app.CanUse(n, c.Now()) && d.admits(n, app.Job.Bench.CPULoad) {
			var score float64
			if d.Placer != nil {
				score = d.Placer.Score(c, app, n)
			}
			nodes, scores = append(nodes, n), append(scores, score)
		}
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	est, haveEst := estimateOf(app)
	for k, i := range order {
		if !wantsExecutor(app) {
			for _, i := range order[k:] {
				left = append(left, scores[i])
			}
			break
		}
		d.spawnOn(c, app, nodes[i], est, haveEst)
		tried = append(tried, scores[i])
	}
	return tried, left
}

// TestPlaceAppWalkMatchesGatherAndSort pins placeApp's walk for both
// first-fit orders, a nil placer and the class-aware wrapper of one, to
// the gather, score and stable-sort placement it replaced: on identical
// seeded clusters, every app gets the same executors (node, reservation
// and items, in App.Executors order). Under the class-aware order the
// fixtures must include apps whose fleet the penalty-free nodes fill while
// penalised candidates wait, and apps that go on to penalised nodes of more
// than one penalty tier, so both the early stop and the best-first order
// after the walk are exercised.
func TestPlaceAppWalkMatchesGatherAndSort(t *testing.T) {
	for _, tc := range []struct {
		name   string
		placer Placer
	}{{"first-fit", nil}, {"class-aware", NewClassAware(nil)}} {
		t.Run(tc.name, func(t *testing.T) {
			var filledFree, tiered int
			for seed := int64(1); seed <= 16; seed++ {
				dispatcher := func() *Dispatcher {
					d := NewOracle()
					d.Placer, d.MaxAppsPerNode = tc.placer, 3
					return d
				}
				d, ref := dispatcher(), dispatcher()
				c, apps := walkFixture(t, seed, d)
				rc, refApps := walkFixture(t, seed, ref)
				for i, app := range apps {
					d.placeApp(c, app)
					tried, left := refPlaceApp(ref, rc, refApps[i])
					got, want := app.Executors, refApps[i].Executors
					if len(got) != len(want) {
						t.Fatalf("seed %d app %d: %d executors, reference %d", seed, i, len(got), len(want))
					}
					for k, e := range got {
						w := want[k]
						if e.Node.ID != w.Node.ID || e.ReservedGB != w.ReservedGB || e.ItemsGB != w.ItemsGB {
							t.Fatalf("seed %d app %d executor %d: node %d, %v GB reserved, %v GB items; reference node %d, %v, %v",
								seed, i, k, e.Node.ID, e.ReservedGB, e.ItemsGB, w.Node.ID, w.ReservedGB, w.ItemsGB)
						}
					}
					if len(left) > 0 && left[len(left)-1] < 0 && tried[len(tried)-1] == 0 {
						filledFree++
					}
					penalties := map[float64]bool{}
					for _, s := range tried {
						if s < 0 {
							penalties[s] = true
						}
					}
					if len(penalties) > 1 {
						tiered++
					}
				}
			}
			if tc.placer != nil && (filledFree == 0 || tiered == 0) {
				t.Errorf("fixtures filled %d fleets on penalty-free nodes alone and sent %d apps to several penalty tiers; want both", filledFree, tiered)
			}
		})
	}
}
