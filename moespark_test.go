package moespark

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's quick
// start does: train, predict, schedule, measure.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model, err := TrainDefaultModel(rng)
	if err != nil {
		t.Fatalf("TrainDefaultModel: %v", err)
	}

	b, err := FindBenchmark("SP.Kmeans")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.Predict(b.Counters(rng), b.ProfilePoint(1, rng), b.ProfilePoint(4, rng))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred.Func.Family != b.Truth.Family {
		t.Errorf("predicted family %v, truth %v", pred.Func.Family, b.Truth.Family)
	}

	jobs := []Job{
		{Bench: b, InputGB: 30},
		{Bench: mustFind(t, "HB.Sort"), InputGB: 100},
		{Bench: mustFind(t, "BDB.Grep"), InputGB: 30},
	}
	sim := NewCluster(DefaultClusterConfig())
	res, err := sim.Run(jobs, NewMoEScheduler(model, rng))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cmp, err := CompareToSerial(sim, res, jobs)
	if err != nil {
		t.Fatalf("CompareToSerial: %v", err)
	}
	if cmp.NormalizedSTP <= 1 {
		t.Errorf("co-locating 3 jobs should beat serial execution, STP = %v", cmp.NormalizedSTP)
	}
}

func mustFind(t *testing.T, name string) *Benchmark {
	t.Helper()
	b, err := FindBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFacadeCalibration(t *testing.T) {
	fn, err := Calibrate(NapierianLog, ProfilePoint{X: 1, Y: 16.3}, ProfilePoint{X: 4, Y: 18.8})
	if err != nil {
		t.Fatal(err)
	}
	if fn.Family != NapierianLog {
		t.Errorf("family %v", fn.Family)
	}
	if _, err := BestFit(nil); err == nil {
		t.Error("BestFit(nil) must error")
	}
}

func TestFacadeCatalog(t *testing.T) {
	if got := len(BenchmarkCatalog()); got != 44 {
		t.Errorf("catalogue size %d, want 44", got)
	}
	jobs, err := Table4Mix()
	if err != nil || len(jobs) != 30 {
		t.Errorf("Table4Mix: %d jobs, %v", len(jobs), err)
	}
	if _, err := FindBenchmark("nope"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestFacadeSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model, err := TrainDefaultModel(rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{
		NewIsolatedScheduler(),
		NewPairwiseScheduler(),
		NewMoEScheduler(model, rng),
		NewOracleScheduler(),
		NewOnlineSearchScheduler(rng),
	} {
		if s.Name() == "" {
			t.Error("scheduler without a name")
		}
	}
}

func TestFacadeQuasarAndUnified(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, err := TrainQuasarModel(rng)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Bench: mustFind(t, "HB.Sort"), InputGB: 30},
		{Bench: mustFind(t, "SP.Pca"), InputGB: 30},
	}
	for _, s := range []Scheduler{
		NewQuasarScheduler(q, rng),
		NewUnifiedScheduler(NapierianLog, rng),
	} {
		sim := NewCluster(DefaultClusterConfig())
		res, err := sim.Run(jobs, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.MakespanSec <= 0 {
			t.Errorf("%s: empty run", s.Name())
		}
	}
}

func TestFacadeModelPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := TrainDefaultModel(rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(m, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Programs()) != len(m.Programs()) {
		t.Error("persistence lost programs")
	}
}

// TestFacadeOpenSystem exercises the open-system public API end to end:
// arrival generation, streaming simulation, queueing metrics.
func TestFacadeOpenSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model, err := TrainDefaultModel(rng)
	if err != nil {
		t.Fatalf("TrainDefaultModel: %v", err)
	}
	arrivals, err := PoissonArrivals(10, 100.0/3600, rng)
	if err != nil {
		t.Fatalf("PoissonArrivals: %v", err)
	}
	sim := NewCluster(DefaultClusterConfig())
	res, err := sim.RunOpen(SubmissionsFromArrivals(arrivals), NewMoEScheduler(model, rng))
	if err != nil {
		t.Fatalf("RunOpen: %v", err)
	}
	q, err := MeasureQueueing(res, 600)
	if err != nil {
		t.Fatalf("MeasureQueueing: %v", err)
	}
	if q.Apps != 10 || q.MeanSojournSec <= 0 || q.ThroughputJobsPerHour <= 0 {
		t.Errorf("degenerate queueing metrics: %+v", q)
	}
	if _, err := BurstyArrivals(5, 0.5, 4, 60, rng); err != nil {
		t.Errorf("BurstyArrivals: %v", err)
	}
	if _, err := DiurnalArrivals(5, 0.05, 0.5, 3600, rng); err != nil {
		t.Errorf("DiurnalArrivals: %v", err)
	}
}

func TestFacadeAdaptivePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	model, err := TrainDefaultModel(rng)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := GrowthArrivals(12, 80.0/3600, 2, 20, -0.35, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	pred := NewAdaptivePredictor(model)
	sim := NewCluster(DefaultClusterConfig())
	res, err := sim.RunOpen(SubmissionsFromArrivals(arrivals), NewPredictorScheduler(pred, rand.New(rand.NewSource(33))))
	if err != nil {
		t.Fatal(err)
	}
	if pred.Observations() == 0 {
		t.Error("adaptive predictor received no feedback through the facade")
	}
	q, err := MeasureQueueing(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.MeanSojournSec <= 0 {
		t.Errorf("degenerate queueing metrics: %+v", q)
	}
	d := NewAdaptiveMoEScheduler(model, rand.New(rand.NewSource(34)))
	if d.Name() != "MoE-adaptive" {
		t.Errorf("adaptive scheduler named %q", d.Name())
	}
	var static Predictor = model
	if static.Name() != "MoE-static" {
		t.Errorf("static predictor misnamed")
	}
}
