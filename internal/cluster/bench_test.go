package cluster

import (
	"math/rand"
	"testing"

	"moespark/internal/workload"
)

// BenchmarkOpenSystemEngine times the event-engine hot loop (nextEventDt /
// advance / admitArrivals) under a 200-application open-system run with
// Poisson arrivals: the baseline for future engine optimizations such as an
// indexed event queue. The scheduler is deliberately trivial so the engine
// dominates the profile.
func BenchmarkOpenSystemEngine(b *testing.B) {
	arrivals, err := workload.PoissonArrivals(200, 0.05, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	subs := Submissions(arrivals)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(DefaultConfig())
		res, err := c.RunOpen(subs, &fullSpeedScheduler{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Apps) != 200 {
			b.Fatalf("%d apps completed, want 200", len(res.Apps))
		}
	}
}

// scaleStream builds the large open-system stream of the scaling
// benchmarks: a bimodal big/little fleet, a drain/fail storm with autoscaler
// rejoins, and a classed (latency/batch) arrival stream, so the
// weighted-admission, node-event and heterogeneous-rate paths are all on the
// clock. The arrival rate keeps the system loaded but stable: an overloaded
// queue grows its backlog with the stream, making every engine — indexed or
// not — intrinsically quadratic, which would measure the workload rather than
// the engine. TestScaleStreamStable holds the stream to that.
func scaleStream(tb testing.TB, apps int) (specs []NodeSpec, subs []Submission, storm []NodeEvent) {
	tb.Helper()
	const nodes = 64
	fleet, err := workload.BimodalFleet(nodes, workload.BigNode(), workload.LittleNode(), 0.5, rand.New(rand.NewSource(2)))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	arrivals, err := workload.PoissonArrivals(apps, 0.018, rng)
	if err != nil {
		tb.Fatal(err)
	}
	tagged, err := workload.TagArrivals(arrivals, workload.LatencyBatchMix(0.3), rng)
	if err != nil {
		tb.Fatal(err)
	}
	span := tagged[len(tagged)-1].At
	storm, err = StormEvents(nodes, 4, 4, span*0.1, span*0.8, 30, rand.New(rand.NewSource(4)))
	if err != nil {
		tb.Fatal(err)
	}
	return SpecsFrom(fleet), Submissions(tagged), storm
}

// runScaleStream replays a scaleStream on a fresh default-config cluster
// under the trivial whole-node policy, so the engine dominates.
func runScaleStream(tb testing.TB, specs []NodeSpec, subs []Submission, storm []NodeEvent) *Result {
	tb.Helper()
	c, err := NewHetero(DefaultConfig(), specs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.ScheduleNodeEvents(storm...); err != nil {
		tb.Fatal(err)
	}
	res, err := c.RunOpen(subs, &fullSpeedScheduler{})
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Apps) != len(subs) {
		tb.Fatalf("%d apps completed, want %d", len(res.Apps), len(subs))
	}
	return res
}

// scaleRun times one scaleStream run of the given length per iteration.
func scaleRun(b *testing.B, apps int) {
	b.Helper()
	specs, subs, storm := scaleStream(b, apps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runScaleStream(b, specs, subs, storm)
	}
}

// BenchmarkOpenSystemEngine2500 is the half-scale point of the scaling pair:
// together with the 5k benchmark it pins the engine's growth rate (doubling
// the stream should far undercut the old engine's ~4x quadratic cost).
func BenchmarkOpenSystemEngine2500(b *testing.B) { scaleRun(b, 2500) }

// BenchmarkOpenSystemEngine5000 is the production-scale stress point from
// the ROADMAP's event-queue-indexing item: 5k classed arrivals on a churny
// 64-node bimodal fleet.
func BenchmarkOpenSystemEngine5000(b *testing.B) { scaleRun(b, 5000) }

// BenchmarkOpenSystemEngine10000 through 100000 are the fleet-scale points of
// the completion-heap PR: with settle-on-rate-change integration the engine
// no longer rescans rate-driven completions on every event, so 10x-ing the
// stream should cost close to 10x in wall time (the 10k→100k engine-only
// ratio must stay ≤ 12x). The 100k point was out of reach for the scan
// engine, which paid O(total apps) per event.
func BenchmarkOpenSystemEngine10000(b *testing.B) { scaleRun(b, 10000) }

func BenchmarkOpenSystemEngine20000(b *testing.B) { scaleRun(b, 20000) }

func BenchmarkOpenSystemEngine100000(b *testing.B) { scaleRun(b, 100000) }

// colocationScheduler drives the co-location benchmarks: it packs every
// waiting app across many nodes with small, deliberately under-reserved
// executors, so fleets run dozens of executors per node and every completion
// dirties many nodes at once. That pushes the engine's cost into the
// per-node rate formulas — cacheEff (items below fair share) and heapFactor
// (reservation shortfall) both active on every executor.
type colocationScheduler struct {
	waitBuf []*App
	free    []float64 // per-node FreeGB snapshot for the current pass
	actual  []float64 // per-node ActualGB snapshot for the current pass
}

func (*colocationScheduler) Name() string                       { return "test-colocation" }
func (*colocationScheduler) Prepare(*Cluster, *App) ProfilePlan { return ProfilePlan{} }
func (s *colocationScheduler) Schedule(c *Cluster) {
	s.waitBuf = c.AppendWaitingApps(s.waitBuf[:0])
	if len(s.waitBuf) == 0 {
		return
	}
	nodes := c.Nodes()
	// Bound the placement walk to the FIFO head: under a transient backlog
	// the per-event scheduling cost stays constant instead of O(waiting),
	// so the benchmark keeps timing the engine, not the queue.
	if len(s.waitBuf) > 48 {
		s.waitBuf = s.waitBuf[:48]
	}
	// Snapshot each node's free/resident memory once per pass instead of
	// re-summing its executor list on every visit: FreeGB and ActualGB are
	// O(executors), and with a dozen co-runners per node the fresh sums would
	// dwarf the engine being measured. Only this scheduler mutates the fleet
	// between events, so refreshing the one spawned-on node keeps the
	// snapshot exactly what a fresh read would return.
	if len(s.free) < len(nodes) {
		s.free = make([]float64, len(nodes))
		s.actual = make([]float64, len(nodes))
	}
	for i, n := range nodes {
		s.free[i] = n.FreeGB()
		s.actual[i] = n.ActualGB()
	}
	for _, app := range s.waitBuf {
		// One footprint-model eval per app, not per node: items stay fixed
		// for the pass, pinned below every spawn's fair share so cacheEff is
		// on the clock, with the reservation below the footprint so
		// heapFactor is too.
		items := 0.6 * app.RemainingGB / float64(app.MaxExecutors)
		need := app.Job.Bench.Footprint(items)
		reserve := need * 0.8
		// Rotate the scan start per app so executors spread evenly instead of
		// piling onto the low node IDs. A waiting app holds no executors, and
		// each node is visited once per pass, so no ExecutorOn check is
		// needed.
		start := app.ID % len(nodes)
		for i := 0; i < len(nodes) && len(app.Executors) < app.MaxExecutors; i++ {
			idx := (start + i) % len(nodes)
			n := nodes[idx]
			if !n.Available() || app.BlockedOn(n, c.Now()) {
				continue
			}
			// Admit by projected residency, not reservation: staying under the
			// pressure watermark keeps the paging spiral off the benchmark.
			if reserve > s.free[idx] || s.actual[idx]+need > 0.85*n.Spec.UsableGB() {
				continue
			}
			if _, err := c.Spawn(app, n, reserve, items); err != nil {
				break
			}
			s.free[idx] = n.FreeGB()
			s.actual[idx] = n.ActualGB()
		}
	}
}

// colocationStream is the co-location-heavy open-system workload: a 96-node
// uniform fleet where small ExecutorSpreadGB sizing fans each app across up
// to a dozen nodes. Unlike scaleRun — whose whole-node executors leave the
// rate pass a small slice of each event — the rate recomputation dominates
// here.
func colocationStream(tb testing.TB, apps int) (Config, []NodeSpec, []Submission) {
	tb.Helper()
	const nodes = 96
	fleet, err := workload.UniformFleet(nodes, workload.BigNode())
	if err != nil {
		tb.Fatal(err)
	}
	arrivals, err := workload.PoissonArrivals(apps, 0.06, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	// Stretch every input so each app wants an executor on a large slice of
	// the fleet: arrivals, startup-gate expiries and completions then all
	// dirty dozens of nodes at once.
	for i := range arrivals {
		arrivals[i].Job.InputGB = 450 + 20*float64(i%5)
	}
	cfg := DefaultConfig()
	cfg.ExecutorSpreadGB = 3  // size executor fleets at many small chunks
	cfg.MaxExecutorNodes = 96 // let every app reach the whole fleet
	return cfg, SpecsFrom(fleet), Submissions(arrivals)
}

// colocationRun times colocationStream under colocationScheduler.
func colocationRun(b *testing.B, apps int) {
	b.Helper()
	cfg, specs, subs := colocationStream(b, apps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewHetero(cfg, specs)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.RunOpen(subs, &colocationScheduler{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Apps) != apps {
			b.Fatalf("%d apps completed, want %d", len(res.Apps), apps)
		}
	}
}

// BenchmarkColocationEngine20000 / 100000 time the engine where the per-node
// rate pass dominates each event (about ten executors per busy node), the
// cost scaleRun's whole-node executors hide. CI compares the 20k point
// against the base branch.
func BenchmarkColocationEngine20000(b *testing.B) { colocationRun(b, 20000) }

func BenchmarkColocationEngine100000(b *testing.B) { colocationRun(b, 100000) }

// BenchmarkFleetSizing1024 times fleet-aware sizing alone (fleetSizes, run
// at every admission and, for every in-flight app whose cap is below its
// free-fleet size, at every event) on a seeded 1024-node big/little fleet in
// 64 racks. Six racks are drained and about a third of the nodes are fully
// reserved, so the walk skips unavailable and full nodes on its way down the
// spread order. Each op sizes one input, cycling from a 4 GB job to a
// 1000 GB one that hits the MaxExecutorNodes cap.
func BenchmarkFleetSizing1024(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	fleet, err := workload.BimodalFleet(1024, workload.BigNode(), workload.LittleNode(), 0.5, r)
	if err != nil {
		b.Fatal(err)
	}
	if fleet, err = workload.AssignRacks(fleet, 64, 2); err != nil {
		b.Fatal(err)
	}
	specs := SpecsFrom(fleet)
	c, err := NewHetero(DefaultConfig(), specs)
	if err != nil {
		b.Fatal(err)
	}
	// AssignRacks deals contiguous blocks, 16 nodes per rack here.
	drained := map[string]bool{}
	for _, rack := range r.Perm(64)[:6] {
		drained[specs[rack*16].Rack] = true
	}
	for _, n := range c.Nodes() {
		switch {
		case drained[n.Spec.Rack]:
			err = c.ScheduleNodeEvents(NodeEvent{At: 0, Kind: NodeDrain, Node: n.ID})
		case r.Float64() < 0.35:
			_, err = c.AddForeign(n.ID, "hog", 0.1, n.AllocatableGB(), 1e6)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := c.applyNodeEvents(); err != nil {
		b.Fatal(err)
	}
	inputs := []float64{4, 16, 64, 256, 1000}
	ops, total := 0, 0
	for b.Loop() {
		fleet, _ := c.fleetSizes(inputs[ops%len(inputs)])
		total += fleet
		ops++
	}
	if total < ops {
		b.Fatalf("sized %d executors over %d ops", total, ops)
	}
}

// BenchmarkClosedBatchEngine is the closed-batch counterpart on the same
// 200-job set, isolating the cost of arrival handling from the rest of the
// loop.
func BenchmarkClosedBatchEngine(b *testing.B) {
	arrivals, err := workload.PoissonArrivals(200, 0.05, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]workload.Job, len(arrivals))
	for i, a := range arrivals {
		jobs[i] = a.Job
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(DefaultConfig())
		if _, err := c.Run(jobs, &fullSpeedScheduler{}); err != nil {
			b.Fatal(err)
		}
	}
}
