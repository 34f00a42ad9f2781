package sched

import (
	"math/rand"
	"testing"

	"moespark/internal/cluster"
	"moespark/internal/metrics"
	"moespark/internal/workload"
)

var (
	testBatchClass   = workload.Class{Name: "batch", Weight: 1, Preemptible: true}
	testLatencyClass = workload.Class{Name: "latency", Weight: 4}
)

// classedStream builds a Poisson stream tagged with the latency/batch mix.
func classedStream(t *testing.T, n int, ratePerHour float64, seed int64) []cluster.Submission {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	arrivals, err := workload.PoissonArrivals(n, ratePerHour/3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), rng)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Submissions(tagged)
}

// scorePlacer is a Placer that reads each node's score from a table.
type scorePlacer map[*cluster.Node]float64

func (p scorePlacer) Score(_ *cluster.App, n *cluster.Node) float64 { return p[n] }

// TestPriorityRanksClassBeforeScore pins that a class-aware copy tries a
// node hosting a higher-weight executor only after every node that hosts
// none, however far the Placer's scores span: a batch app with a
// one-executor fleet lands on the empty node although the node beside the
// latency tenant scores 5e6 higher. A score penalty of 1e6 per co-runner,
// the old rule, put it beside the latency tenant.
func TestPriorityRanksClassBeforeScore(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	c := cluster.New(cfg)
	busy, empty := c.Nodes()[0], c.Nodes()[1]
	hi := addReady(t, c, workload.Job{Bench: testBench(t), InputGB: 10})
	hi.Class = testLatencyClass
	if _, err := c.Spawn(hi, busy, 10, 10); err != nil {
		t.Fatal(err)
	}
	batch := addReady(t, c, workload.Job{Bench: testBench(t), InputGB: 10})
	batch.Class = testBatchClass
	batch.MaxExecutors = 1

	d := NewOracle()
	d.Placer = scorePlacer{busy: 5e6, empty: 0}
	p := NewPriority(d, false)
	p.Prepare(c, batch)
	p.placeApp(c, batch)
	if len(batch.Executors) != 1 {
		t.Fatalf("placed %d executors, want 1", len(batch.Executors))
	}
	if got := batch.Executors[0].Node; got != empty {
		t.Errorf("batch app placed on node %d beside the latency tenant, want the empty node %d", got.ID, empty.ID)
	}
}

func testBench(t *testing.T) *workload.Benchmark {
	t.Helper()
	b, err := workload.Find("HB.Sort")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPrioritySingleClassIdentical pins the compose-with-anything contract:
// wrapping a policy in NewPriority must not change a single-class run at
// all, bit-for-bit.
func TestPrioritySingleClassIdentical(t *testing.T) {
	mix, err := workload.Table4Mix()
	if err != nil {
		t.Fatal(err)
	}
	plain := cluster.New(cluster.DefaultConfig())
	r1, err := plain.Run(mix, NewOracle())
	if err != nil {
		t.Fatal(err)
	}
	wrapped := cluster.New(cluster.DefaultConfig())
	r2, err := wrapped.Run(mix, NewPriority(NewOracle(), true))
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanSec != r2.MakespanSec {
		t.Errorf("makespan %v (plain) vs %v (priority-wrapped)", r1.MakespanSec, r2.MakespanSec)
	}
	for i := range r1.Apps {
		if r1.Apps[i].DoneTime != r2.Apps[i].DoneTime {
			t.Errorf("app %d done %v vs %v", i, r1.Apps[i].DoneTime, r2.Apps[i].DoneTime)
		}
	}
	if r2.PreemptKills != 0 {
		t.Errorf("single-class run preempted %d executors", r2.PreemptKills)
	}
}

// TestNewPriorityLeavesInnerUntouched pins the copy's no-mutation contract:
// lifting must not change the caller's dispatcher, and running the
// preempting copy must leave the original running exactly like a fresh
// unlifted dispatcher.
func TestNewPriorityLeavesInnerUntouched(t *testing.T) {
	withBestFit := func() *Dispatcher {
		d := NewOracle()
		d.Placer = NewBestFitMemory()
		return d
	}
	d := withBestFit()
	placer := d.Placer
	s := NewPriority(d, true)
	if d.Placer != placer || d.classTiers || d.preempt {
		t.Fatalf("NewPriority changed the caller's dispatcher: placer %T, class tiers %v, preempt %v",
			d.Placer, d.classTiers, d.preempt)
	}
	run := func(s cluster.Scheduler) *cluster.Result {
		t.Helper()
		res, err := cluster.New(cluster.DefaultConfig()).RunOpen(classedStream(t, 40, 200, 19), s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(s).PreemptKills == 0 {
		t.Fatal("stream should force preemption")
	}
	got, want := run(d), run(withBestFit())
	if got.PreemptKills != 0 || len(got.Apps) != len(want.Apps) {
		t.Fatalf("original after the copy ran: %d preempt kills, %d apps; want 0 and %d",
			got.PreemptKills, len(got.Apps), len(want.Apps))
	}
	for i, w := range want.Apps {
		g := got.Apps[i]
		if g.StartTime != w.StartTime || g.DoneTime != w.DoneTime || g.OOMKills != w.OOMKills {
			t.Errorf("app %d: start %v done %v OOM kills %d, fresh dispatcher gives %v, %v, %d",
				i, g.StartTime, g.DoneTime, g.OOMKills, w.StartTime, w.DoneTime, w.OOMKills)
		}
	}
}

// TestPriorityReuseAcrossRuns pins scheduler reuse: the one-shot preemption
// guard is per cluster, so running the same wrapper on a fresh cluster must
// preempt exactly like a fresh wrapper would.
func TestPriorityReuseAcrossRuns(t *testing.T) {
	s := NewPriority(NewOracle(), true)
	run := func() int {
		subs := classedStream(t, 40, 200, 19)
		c := cluster.New(cluster.DefaultConfig())
		res, err := c.RunOpen(subs, s)
		if err != nil {
			t.Fatal(err)
		}
		return res.PreemptKills
	}
	first, second := run(), run()
	if first == 0 {
		t.Fatal("stream should force preemption")
	}
	if second != first {
		t.Errorf("reused scheduler preempted %d executors, fresh run preempted %d", second, first)
	}
}

// TestPreemptionImprovesLatencyTail runs the same classed stream with and
// without preemption: preemption must fire (PreemptKills > 0 and charged
// back) and the latency class's sojourn tail must not get worse.
func TestPreemptionImprovesLatencyTail(t *testing.T) {
	run := func(preempt bool) (*cluster.Result, []metrics.ClassQueueMetrics) {
		subs := classedStream(t, 40, 200, 19)
		c := cluster.New(cluster.DefaultConfig())
		res, err := c.RunOpen(subs, NewPriority(NewOracle(), preempt))
		if err != nil {
			t.Fatal(err)
		}
		byClass, err := metrics.QueueingByClass(res, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res, byClass
	}
	resNo, qNo := run(false)
	resYes, qYes := run(true)
	if resNo.PreemptKills != 0 {
		t.Fatalf("preemption disabled but %d kills recorded", resNo.PreemptKills)
	}
	if resYes.PreemptKills == 0 {
		t.Fatal("preemption enabled but never fired; the stream should oversubscribe the fleet")
	}
	find := func(qs []metrics.ClassQueueMetrics, name string) metrics.ClassQueueMetrics {
		for _, q := range qs {
			if q.Class == name {
				return q
			}
		}
		t.Fatalf("class %q missing from %+v", name, qs)
		return metrics.ClassQueueMetrics{}
	}
	latNo, latYes := find(qNo, "latency"), find(qYes, "latency")
	if latYes.P99SojournSec > latNo.P99SojournSec {
		t.Errorf("latency p99 sojourn worsened under preemption: %.1f -> %.1f",
			latNo.P99SojournSec, latYes.P99SojournSec)
	}
	if kills := find(qYes, "batch").PreemptKills; kills != resYes.PreemptKills {
		t.Errorf("batch class absorbed %d preempt kills, run recorded %d", kills, resYes.PreemptKills)
	}
	// Every app still completes: preempted work is charged back, not lost.
	for _, a := range resYes.Apps {
		if a.DoneTime < 0 {
			t.Errorf("app %d (%s) never finished after preemption", a.ID, a.Class.Name)
		}
	}
}

// TestSerialPriorityNeverPreempts pins that a serial copy of the dispatcher
// never runs the preemption pass. Isolated runs only the FCFS head, so a
// batch executor killed for a waiting latency app frees a node the head
// itself takes back: the kill costs batch work and starts nothing sooner.
// The scenario is four reference nodes, 200 GB HB.Sort batch apps at t=0
// and t=10, and a 30 GB HB.Sort latency app at t=20.
func TestSerialPriorityNeverPreempts(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	sort := testBench(t)
	subs := []cluster.Submission{
		{At: 0, Job: workload.Job{Bench: sort, InputGB: 200}, Class: testBatchClass},
		{At: 10, Job: workload.Job{Bench: sort, InputGB: 200}, Class: testBatchClass},
		{At: 20, Job: workload.Job{Bench: sort, InputGB: 30}, Class: testLatencyClass},
	}
	run := func(preempt bool) *cluster.Result {
		t.Helper()
		res, err := cluster.New(cfg).RunOpen(subs, NewPriority(NewIsolated(), preempt))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, lifted := run(false), run(true)
	if lifted.PreemptKills != 0 || lifted.LostWorkGB != 0 {
		t.Errorf("serial copy preempted %d executors and lost %.2f GB", lifted.PreemptKills, lifted.LostWorkGB)
	}
	for i, a := range lifted.Apps {
		p := plain.Apps[i]
		if a.StartTime != p.StartTime || a.DoneTime != p.DoneTime {
			t.Errorf("app %d start/done %.1f/%.1f s with preemption on, %.1f/%.1f s without",
				a.ID, a.StartTime, a.DoneTime, p.StartTime, p.DoneTime)
		}
	}
}
