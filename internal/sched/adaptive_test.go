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

// The dispatcher stamps each executor's planned prediction so observations
// compare like with like; estimator-less schemes leave it zero.
func TestExecutorPredictedGBStamped(t *testing.T) {
	model, err := moe.TrainDefault(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Table4Mix()
	if err != nil {
		t.Fatal(err)
	}
	probe := &predictedProbe{inner: NewMoE(model, rand.New(rand.NewSource(9)))}
	c := cluster.New(cluster.DefaultConfig())
	if _, err := c.Run(jobs[:8], probe); err != nil {
		t.Fatal(err)
	}
	if !probe.sawStamp {
		t.Error("no executor carried a stamped PredictedGB under the MoE scheme")
	}
}

// predictedProbe checks executor stamps right after each scheduling pass.
type predictedProbe struct {
	inner    *Dispatcher
	sawStamp bool
}

func (p *predictedProbe) Name() string { return p.inner.Name() }
func (p *predictedProbe) Prepare(c *cluster.Cluster, a *cluster.App) cluster.ProfilePlan {
	return p.inner.Prepare(c, a)
}
func (p *predictedProbe) Schedule(c *cluster.Cluster) {
	p.inner.Schedule(c)
	for _, n := range c.Nodes() {
		for _, e := range n.Executors {
			if e.PredictedGB > 0 {
				p.sawStamp = true
			}
		}
	}
}
