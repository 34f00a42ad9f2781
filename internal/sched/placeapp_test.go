package sched

import (
	"math/rand"
	"slices"
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

// walkFixture builds a seeded 64-node big/little fleet in 8 racks for d
// and the apps to place on it, one per class and cap. Resident apps of every class hold
// one to three executors on about half the nodes, so a placed app meets
// nodes its class penalises one to three co-runners deep. Foreign CPU hogs
// fail the CPU rule on some open nodes, d's per-node app cap fails crowded
// ones, a few residents leave their node too little memory for any plan,
// and half the apps already hold an executor on one node, which fails
// App.CanUse there and gives the rack-spread placer a rack to avoid. Each class gets a cap of 2, which the penalty-free
// nodes fill, and one of 40, which they cannot.
func walkFixture(t *testing.T, seed int64, d *Dispatcher) (*cluster.Cluster, []*cluster.App) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	fleet, err := workload.BimodalFleet(64, workload.BigNode(), workload.LittleNode(), 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if fleet, err = workload.AssignRacks(fleet, 8, 2); err != nil {
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

// refPlaceApp is placeApp's reference. It keeps the rule of the
// class-aware wrapper that NewPriority used to install: it gathers every
// node that passes App.CanUse and the dispatcher's admission, scores each
// with d's placer (0 for a nil one) less 1e6 per executor of a strictly
// higher class weight on a NewPriority copy, stable-sorts them by
// descending score and spawns in that order until the fleet is full. It
// returns the tiers (those higher-weight executor counts) of the nodes it
// tried and of those it never reached.
func refPlaceApp(d *Dispatcher, c *cluster.Cluster, app *cluster.App) (tried, left []int) {
	if !wantsExecutor(app) {
		return nil, nil
	}
	type cand struct {
		node  *cluster.Node
		tier  int
		score float64
	}
	var cands []cand
	for _, n := range c.Nodes() {
		if !app.CanUse(n, c.Now()) || !d.admits(n, app.Job.Bench.CPULoad) {
			continue
		}
		k := cand{node: n}
		if d.classTiers {
			for _, e := range n.Executors {
				if e.App.Class.Weight > app.Class.Weight {
					k.tier++
				}
			}
		}
		if d.Placer != nil {
			k.score = d.Placer.Score(app, n)
		}
		k.score -= 1e6 * float64(k.tier)
		cands = append(cands, k)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	est, haveEst := estimateOf(app)
	for i, k := range cands {
		if !wantsExecutor(app) {
			for _, k := range cands[i:] {
				left = append(left, k.tier)
			}
			break
		}
		d.spawnOn(c, app, k.node, est, haveEst)
		tried = append(tried, k.tier)
	}
	return tried, left
}

// TestPlaceAppWalkMatchesGatherAndSort pins placeApp, for first fit and
// each built-in placer, on a plain dispatcher and on a NewPriority copy, to
// the gather, score and stable-sort placement under the retired 1e6
// penalty rule: on identical seeded clusters, every app gets the same
// executors (node, reservation and items, in App.Executors order). On the
// copies the fixtures must include apps whose fleet the nodes without a
// higher-weight executor fill while others wait, and apps that go on to
// nodes of more than one higher tier, so both the early stop and the
// best-first order are exercised.
func TestPlaceAppWalkMatchesGatherAndSort(t *testing.T) {
	for _, tc := range []struct {
		plain, priority string // subtest names
		placer          func() Placer
	}{
		{"first-fit", "class-aware", func() Placer { return nil }},
		{"best-fit", "class-aware-best-fit", NewBestFitMemory},
		{"speed-aware", "class-aware-speed-aware", NewSpeedAware},
		{"rack-spread", "class-aware-rack-spread", NewRackSpread},
	} {
		for _, priority := range []bool{false, true} {
			name := tc.plain
			if priority {
				name = tc.priority
			}
			t.Run(name, func(t *testing.T) {
				var filledFree, tiered int
				for seed := int64(1); seed <= 16; seed++ {
					dispatcher := func() *Dispatcher {
						d := NewOracle()
						d.Placer, d.MaxAppsPerNode = tc.placer(), 3
						if priority {
							d = NewPriority(d, false)
						}
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
						if len(left) > 0 && slices.Max(left) > 0 && tried[len(tried)-1] == 0 {
							filledFree++
						}
						tiers := map[int]bool{}
						for _, k := range tried {
							if k > 0 {
								tiers[k] = true
							}
						}
						if len(tiers) > 1 {
							tiered++
						}
					}
				}
				if priority && (filledFree == 0 || tiered == 0) {
					t.Errorf("fixtures filled %d fleets on tier-0 nodes alone and sent %d apps to several higher tiers; want both", filledFree, tiered)
				}
			})
		}
	}
}
