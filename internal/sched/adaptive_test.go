package sched

import (
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/moe"
	"moespark/internal/workload"
)

// End-to-end observation plumbing: an engine run under the adaptive MoE
// scheme must deliver realised footprints through the dispatcher's Observe
// into the predictor — and through the priority wrapper just the same.
func TestAdaptiveObservationPlumbing(t *testing.T) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.PoissonArrivals(10, 60.0/3600, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}

	ad := moe.NewAdaptive(model)
	c := cluster.New(cluster.DefaultConfig())
	if _, err := c.RunOpen(cluster.Submissions(arrivals), NewMoEPredictor(ad, rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	if ad.Observations() == 0 {
		t.Error("engine run delivered no observations to the adaptive predictor")
	}

	tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	ad2 := moe.NewAdaptive(model)
	c2 := cluster.New(cluster.DefaultConfig())
	if _, err := c2.RunOpen(cluster.Submissions(tagged), NewPriority(NewMoEPredictor(ad2, rand.New(rand.NewSource(3))), true)); err != nil {
		t.Fatal(err)
	}
	if ad2.Observations() == 0 {
		t.Error("priority wrapper dropped the observation flow")
	}
}

// countingLearner is a moe.Learner over the static model that records
// every observation it is told.
type countingLearner struct {
	*moe.Model
	got []moe.Observation
}

func (l *countingLearner) Observe(o moe.Observation) { l.got = append(l.got, o) }

// reported is one executor the engine reported to Dispatcher.Observe.
type reported struct {
	app             *cluster.App
	itemsGB, needGB float64
}

// observeCounter wraps a dispatcher and records each executor the engine
// reports to it before forwarding the report.
type observeCounter struct {
	*Dispatcher
	seen []reported
}

func (s *observeCounter) Observe(c *cluster.Cluster, e *cluster.Executor, oc cluster.ExecOutcome) {
	s.seen = append(s.seen, reported{e.App, e.ItemsGB, e.NeedGB})
	s.Dispatcher.Observe(c, e, oc)
}

// A learner behind NewMoEPredictor is told each reported executor of a
// confident app exactly once, in report order, with the executor's own
// allocation and true footprint; all executors of one app carry that app's
// one prediction, and no two apps share one.
func TestLearnerObservesEachReportedExecutor(t *testing.T) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.PoissonArrivals(30, 60.0/3600, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	l := &countingLearner{Model: model}
	s := &observeCounter{Dispatcher: NewMoEPredictor(l, rand.New(rand.NewSource(3)))}
	if _, err := cluster.New(cluster.DefaultConfig()).RunOpen(cluster.Submissions(arrivals), s); err != nil {
		t.Fatal(err)
	}
	var want []reported
	for _, r := range s.seen {
		if r.app.Estimate != nil {
			want = append(want, r)
		}
	}
	if len(want) == 0 {
		t.Fatalf("none of %d reported executors belongs to a confident app", len(s.seen))
	}
	if len(l.got) != len(want) {
		t.Fatalf("learner told %d observations, want one per reported executor of a confident app (%d)", len(l.got), len(want))
	}
	predOf := map[*cluster.App]*moe.Prediction{}
	appOf := map[*moe.Prediction]*cluster.App{}
	for i, o := range l.got {
		r := want[i]
		if o.ItemsGB != r.itemsGB || o.ActualGB != r.needGB {
			t.Errorf("observation %d: items %v GB, actual %v GB; executor had %v, %v", i, o.ItemsGB, o.ActualGB, r.itemsGB, r.needGB)
		}
		if o.Prediction == nil {
			t.Fatalf("observation %d carries no prediction", i)
		}
		if p, ok := predOf[r.app]; ok && p != o.Prediction {
			t.Errorf("observation %d: app %d's executors carry different predictions", i, r.app.ID)
		}
		if a, ok := appOf[o.Prediction]; ok && a != r.app {
			t.Errorf("observation %d: apps %d and %d share one prediction", i, a.ID, r.app.ID)
		}
		predOf[r.app], appOf[o.Prediction] = o.Prediction, r.app
	}
}

// A confident prepare under the static model keeps no prediction for
// observations: it allocates only the projected PCs and the boxed estimate.
func TestStaticPrepareAllocs(t *testing.T) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	est := NewMoE(model, rand.New(rand.NewSource(1))).Est.(*moeEstimator)
	app := addReady(t, cluster.New(cluster.DefaultConfig()), placerJob(t, 50))
	allocs := testing.AllocsPerRun(100, func() {
		est.rng.Seed(1)
		app.Estimate = nil
		est.Prepare(app)
	})
	if _, ok := estimateOf(app); !ok {
		t.Fatal("the prepared app is not confident; the test needs a confident one")
	}
	if allocs != 2 {
		t.Errorf("confident static Prepare allocates %v objects, want 2", allocs)
	}
}
