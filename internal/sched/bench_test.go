package sched

import (
	"math/rand"
	"slices"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/moe"
	"moespark/internal/workload"
)

// benchCluster builds the placement-hot-path fixture: a 40-node cluster whose
// memory is fully reserved by resident filler applications, plus a 64-app
// waiting queue. Every Schedule call walks the 64 waiting apps and places
// nothing. No node is open (see cluster.Cluster.OpenNodes), so no placement
// visits a node: the benchmark times the per-app cost of a placement pass
// on a full fleet.
func benchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	cfg := cluster.DefaultConfig()
	c := cluster.New(cfg)
	bench := workload.Catalog()[0]
	for _, n := range c.Nodes() {
		filler := addReady(b, c, workload.Job{Bench: bench, InputGB: cfg.ExecutorSpreadGB})
		if _, err := c.Spawn(filler, n, n.AllocatableGB(), filler.Job.InputGB); err != nil {
			b.Fatalf("filling node %d: %v", n.ID, err)
		}
	}
	for i := 0; i < 64; i++ {
		addReady(b, c, workload.Job{Bench: workload.Catalog()[i%len(workload.Catalog())], InputGB: 30})
	}
	return c
}

func benchmarkSchedule(b *testing.B, d *Dispatcher) {
	c := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Schedule(c)
	}
}

// BenchmarkDispatcherSchedule times Dispatcher.Schedule with the default
// (first-fit) placement over a 40-node / 64-waiting-app cluster.
func BenchmarkDispatcherSchedule(b *testing.B) {
	benchmarkSchedule(b, NewOracle())
}

// BenchmarkDispatcherScheduleScored is the same fixture with an explicit
// scoring Placer. No node is open, so nothing is scored or ranked: it checks
// that a Placer adds nothing to a pass that meets no candidate.
// BenchmarkDispatcherScheduleFleet1024 times scoring on open nodes.
func BenchmarkDispatcherScheduleScored(b *testing.B) {
	d := NewOracle()
	d.Placer = NewBestFitMemory()
	benchmarkSchedule(b, d)
}

// benchmarkAdmission isolates the admission path the engine runs for every
// arriving app — feature gating, two-point calibration and the allocation
// plan — with the event loop excluded: apps are pre-admitted, prepared one
// by one, then planned against a fixed node.
func benchmarkAdmission(b *testing.B, apps int) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	cat := workload.Catalog()
	jobRng := rand.New(rand.NewSource(11))
	jobs := make([]workload.Job, apps)
	for i := range jobs {
		jobs[i] = workload.Job{Bench: cat[jobRng.Intn(len(cat))], InputGB: 5 + jobRng.Float64()*120}
	}
	cfg := cluster.DefaultConfig()
	node := cluster.New(cfg).Nodes()[0]
	free := node.FreeGB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.New(cfg)
		admitted := make([]*cluster.App, apps)
		for j, job := range jobs {
			admitted[j] = addReady(b, c, job)
		}
		d := NewMoE(model, rand.New(rand.NewSource(7)))
		b.StartTimer()
		for _, app := range admitted {
			d.Prepare(c, app)
		}
		for _, app := range admitted {
			est, ok := estimateOf(app)
			d.plan(app, node, free, est, ok)
		}
	}
}

func BenchmarkSchedulerAdmission10k(b *testing.B)  { benchmarkAdmission(b, 10_000) }
func BenchmarkSchedulerAdmission100k(b *testing.B) { benchmarkAdmission(b, 100_000) }

// moeScaleRun is the end-to-end open-system MoE benchmark: a 64-node
// bimodal fleet absorbing a Poisson arrival stream under the MoE scheme,
// whole engine included.
func moeScaleRun(b *testing.B, apps int) {
	b.Helper()
	const nodes = 64
	fleet, err := workload.BimodalFleet(nodes, workload.BigNode(), workload.LittleNode(), 0.5, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	specs := cluster.SpecsFrom(fleet)
	arrivals, err := workload.PoissonArrivals(apps, 0.018, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	subs := cluster.Submissions(arrivals)
	model, err := moe.TrainDefault(rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cluster.NewHetero(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.RunOpen(subs, NewMoE(model, rand.New(rand.NewSource(7))))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Apps) != apps {
			b.Fatalf("%d apps completed, want %d", len(res.Apps), apps)
		}
	}
}

func BenchmarkOpenSystemMoE10k(b *testing.B)  { moeScaleRun(b, 10_000) }
func BenchmarkOpenSystemMoE100k(b *testing.B) { moeScaleRun(b, 100_000) }

// BenchmarkDispatcherScheduleFleet1024 times one Schedule pass of the
// fleet-storm scheduler, class-aware MoE placement with preemption, on a
// seeded 1024-node big/little fleet in 64 racks. Foreign working sets fill
// most of a third of the nodes, so executors placed there hold less than
// their fair share, and the 400 apps want more executors than the fleet
// takes. Warm-up passes place and grow what fits, leaving a few hundred
// apps running and over a hundred waiting; every timed pass then walks the
// waiting apps over the open nodes and the growable executors, and changes
// nothing.
func BenchmarkDispatcherScheduleFleet1024(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	fleet, err := workload.BimodalFleet(1024, workload.BigNode(), workload.LittleNode(), 0.5, r)
	if err != nil {
		b.Fatal(err)
	}
	if fleet, err = workload.AssignRacks(fleet, 64, 2); err != nil {
		b.Fatal(err)
	}
	c, err := cluster.NewHetero(cluster.DefaultConfig(), cluster.SpecsFrom(fleet))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if r.Float64() < 0.35 {
			if _, err := c.AddForeign(n.ID, "hog", 0.1, 0.8*n.AllocatableGB(), 1e6); err != nil {
				b.Fatal(err)
			}
		}
	}
	model, err := moe.TrainDefault(rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	d := NewPriority(NewMoE(model, rand.New(rand.NewSource(7))), true)
	cat := workload.Catalog()
	for range 400 {
		app := addReady(b, c, workload.Job{Bench: cat[r.Intn(len(cat))], InputGB: 5 + r.Float64()*600})
		d.Prepare(c, app)
	}
	for range 3 {
		d.Schedule(c)
	}
	counts := func() (execs, shrunk int) {
		for _, a := range c.ActiveApps() {
			execs += len(a.Executors)
			for _, e := range a.Executors {
				if e.ItemsGB < e.FairShareGB {
					shrunk++
				}
			}
		}
		return execs, shrunk
	}
	execs, shrunk := counts()
	if shrunk == 0 || len(c.WaitingApps()) == 0 {
		b.Fatalf("fixture has %d shrunken executors and %d waiting apps; want both", shrunk, len(c.WaitingApps()))
	}
	b.ReportAllocs()
	for b.Loop() {
		d.Schedule(c)
	}
	if after, _ := counts(); after != execs {
		b.Fatalf("timed passes changed the fleet from %d to %d executors", execs, after)
	}
}

// BenchmarkDispatcherPlaceFleet1024 times one placement that fills its
// fleet: a batch app of the class-aware first-fit copy (NewPriority over
// Oracle) on a seeded 1024-node big/little fleet in 64 racks that is mostly
// open. About one node in ten runs a latency executor, so the walk passes
// nodes that penalise the batch app before the penalty-free nodes fill its
// fleet. Each op then preempts the new executors, newest first, on behalf of
// a latency app, so every op starts from the same state: each must fill the
// fleet, and the last must pick the nodes the first did.
func BenchmarkDispatcherPlaceFleet1024(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	fleet, err := workload.BimodalFleet(1024, workload.BigNode(), workload.LittleNode(), 0.5, r)
	if err != nil {
		b.Fatal(err)
	}
	if fleet, err = workload.AssignRacks(fleet, 64, 2); err != nil {
		b.Fatal(err)
	}
	c, err := cluster.NewHetero(cluster.DefaultConfig(), cluster.SpecsFrom(fleet))
	if err != nil {
		b.Fatal(err)
	}
	cat := workload.Catalog()
	var latency *cluster.App
	for _, n := range c.Nodes() {
		if r.Float64() < 0.1 {
			latency = addReady(b, c, workload.Job{Bench: cat[r.Intn(len(cat))], InputGB: 40})
			latency.Class = testLatencyClass
			if _, err := c.Spawn(latency, n, 0.25*n.AllocatableGB(), 8); err != nil {
				b.Fatal(err)
			}
		}
	}
	d := NewPriority(NewOracle(), true).(*Dispatcher)
	app := addReady(b, c, workload.Job{Bench: cat[0], InputGB: 512})
	app.Class = testBatchClass
	d.Prepare(c, app)
	place := func() {
		d.placeApp(c, app)
		if len(app.Executors) != app.MaxExecutors {
			b.Fatalf("placed %d of %d executors", len(app.Executors), app.MaxExecutors)
		}
	}
	release := func() {
		for len(app.Executors) > 0 {
			if err := c.Preempt(app.Executors[len(app.Executors)-1], latency); err != nil {
				b.Fatal(err)
			}
		}
	}
	nodes := func() []int {
		ids := make([]int, len(app.Executors))
		for i, e := range app.Executors {
			ids[i] = e.Node.ID
		}
		return ids
	}
	place()
	first := nodes()
	if !slices.ContainsFunc(c.Nodes()[:first[len(first)-1]], func(n *cluster.Node) bool {
		return len(n.Executors) > 0 && n.Executors[0].App.Class == testLatencyClass
	}) {
		b.Fatal("the fleet filled before the walk met a latency executor")
	}
	release()
	b.ReportAllocs()
	for b.Loop() {
		place()
		release()
	}
	place()
	if last := nodes(); !slices.Equal(last, first) {
		b.Fatalf("the last op placed on nodes %v, the first on %v", last, first)
	}
}
