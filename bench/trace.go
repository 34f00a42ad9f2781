package main

import (
	"sort"
	"time"

	"moespark/internal/cluster"
)

// Span names. Each span is recorded under its parent: set-up spans under
// "setup", the phases of a repetition under "rep", and the scheduler
// boundary under "cluster.run". Engine self time is cluster.run minus its
// children.
const (
	spanSetup     = "setup"
	spanGen       = "workload.gen"
	spanTrain     = "moe.train"
	spanRep       = "rep"
	spanConstruct = "cluster.construct"
	spanRun       = "cluster.run"
	spanReduce    = "metrics.reduce"
	spanAdmit     = "sched.admit"
	spanSchedule  = "sched.schedule"
	spanObserve   = "sched.observe"
)

type spanKey struct{ name, parent string }

type spanAgg struct {
	count int64
	total time.Duration
	hist  histogram
}

// tracer keeps spans in memory, aggregated per (name, parent), together with
// the counts taken at the same boundaries; the report writes them out when
// the benchmark ends.
type tracer struct {
	spans map[spanKey]*spanAgg
	// admitted counts apps through Prepare/PrepareBatch, confident those
	// with a prediction installed afterwards.
	admitted, confident int64
	// idleSchedules counts Schedule calls made with an empty waiting queue.
	idleSchedules int64
	waitBuf       []*cluster.App
}

func newTracer() *tracer { return &tracer{spans: map[spanKey]*spanAgg{}} }

func (t *tracer) record(name, parent string, d time.Duration) {
	k := spanKey{name, parent}
	s := t.spans[k]
	if s == nil {
		s = &spanAgg{}
		t.spans[k] = s
	}
	s.count++
	s.total += d
	s.hist.add(d)
}

// span returns the aggregate for (name, parent), empty when none was recorded.
func (t *tracer) span(name, parent string) spanAgg {
	if s := t.spans[spanKey{name, parent}]; s != nil {
		return *s
	}
	return spanAgg{}
}

func (t *tracer) admit(apps ...*cluster.App) {
	for _, a := range apps {
		t.admitted++
		if a.PredictedGB > 0 {
			t.confident++
		}
	}
}

// spanRow is one aggregated span as the report prints it.
type spanRow struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
}

func (t *tracer) rows() []spanRow {
	rows := make([]spanRow, 0, len(t.spans))
	for k, s := range t.spans {
		rows = append(rows, spanRow{
			Name: k.name, Parent: k.parent, Count: s.count, TotalS: s.total.Seconds(),
			P50US: s.hist.quantile(0.50) / 1e3, P99US: s.hist.quantile(0.99) / 1e3,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Parent != rows[j].Parent {
			return rows[i].Parent < rows[j].Parent
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// timedScheduler times the scheduler boundary the engine calls on every run:
// Prepare and Schedule. traceScheduler adds PrepareBatch and Observe only
// when the wrapped scheduler has them, because the engine changes path on
// their presence.
type timedScheduler struct {
	inner cluster.Scheduler
	t     *tracer
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Prepare(c *cluster.Cluster, app *cluster.App) cluster.ProfilePlan {
	start := time.Now()
	plan := s.inner.Prepare(c, app)
	s.t.record(spanAdmit, spanRun, time.Since(start))
	s.t.admit(app)
	return plan
}

func (s *timedScheduler) Schedule(c *cluster.Cluster) {
	// The idle count reads the queue before the timer starts.
	s.t.waitBuf = c.AppendWaitingApps(s.t.waitBuf[:0])
	if len(s.t.waitBuf) == 0 {
		s.t.idleSchedules++
	}
	start := time.Now()
	s.inner.Schedule(c)
	s.t.record(spanSchedule, spanRun, time.Since(start))
}

// batchPreparer is the engine's optional batched admission face, matched
// structurally.
type batchPreparer interface {
	PrepareBatch(c *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan
}

type timedBatch struct {
	inner batchPreparer
	t     *tracer
}

func (b timedBatch) PrepareBatch(c *cluster.Cluster, apps []*cluster.App) []cluster.ProfilePlan {
	start := time.Now()
	plans := b.inner.PrepareBatch(c, apps)
	b.t.record(spanAdmit, spanRun, time.Since(start))
	b.t.admit(apps...)
	return plans
}

type timedObserve struct {
	inner cluster.Observer
	t     *tracer
}

func (o timedObserve) Observe(c *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome) {
	start := time.Now()
	o.inner.Observe(c, e, outcome)
	o.t.record(spanObserve, spanRun, time.Since(start))
}

// traceScheduler wraps s so that every call across the scheduler boundary is
// recorded in t. The wrapper has PrepareBatch and Observe exactly when s
// does.
func traceScheduler(s cluster.Scheduler, t *tracer) cluster.Scheduler {
	base := &timedScheduler{inner: s, t: t}
	b, batch := s.(batchPreparer)
	o, observe := s.(cluster.Observer)
	switch {
	case batch && observe:
		return struct {
			*timedScheduler
			timedBatch
			timedObserve
		}{base, timedBatch{b, t}, timedObserve{o, t}}
	case batch:
		return struct {
			*timedScheduler
			timedBatch
		}{base, timedBatch{b, t}}
	case observe:
		return struct {
			*timedScheduler
			timedObserve
		}{base, timedObserve{o, t}}
	}
	return base
}
