package sched

import (
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/moe"
	"moespark/internal/workload"
)

// benchCluster builds the placement-hot-path fixture: a 40-node cluster whose
// memory is fully reserved by resident filler applications, plus a 64-app
// waiting queue. Every Schedule call must scan all (app, node) pairs and
// place nothing, which isolates the dispatcher's candidate-selection loop —
// the hot path a scoring Placer must not make more expensive.
func benchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	cfg := cluster.DefaultConfig()
	c := cluster.New(cfg)
	bench := workload.Catalog()[0]
	for _, n := range c.Nodes() {
		filler := c.AddReadyApp(workload.Job{Bench: bench, InputGB: cfg.ExecutorSpreadGB})
		if _, err := c.Spawn(filler, n, c.Config().AllocatableGB(), filler.Job.InputGB); err != nil {
			b.Fatalf("filling node %d: %v", n.ID, err)
		}
	}
	for i := 0; i < 64; i++ {
		c.AddReadyApp(workload.Job{Bench: workload.Catalog()[i%len(workload.Catalog())], InputGB: 30})
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

// BenchmarkDispatcherScheduleScored is the same hot path with an explicit
// scoring Placer, measuring the overhead of candidate scoring and ranking.
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
			admitted[j] = c.AddReadyApp(job)
		}
		d := NewMoE(model, rand.New(rand.NewSource(7)))
		b.StartTimer()
		for _, app := range admitted {
			d.Prepare(c, app)
		}
		for _, app := range admitted {
			est, ok := d.Est.Estimate(app)
			d.plan(cfg, app, node, free, est, ok)
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
	cfg.FleetAwareSizing = false
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
