package cluster

import (
	"math/rand"
	"testing"

	"moespark/internal/workload"
)

// fleetScaleScheduler is a whole-node FIFO policy built for fleet-scale
// streams: per-event cost is O(1) amortised, independent of both the fleet
// size and the arrival-stream length. Admitted apps enter a FIFO via Prepare
// (the engine calls it once per admission, in arrival order); free nodes live
// on a stack fed by the engine's Observe callback at executor completion.
// Schedule therefore never walks the waiting set or the fleet — it pops the
// FIFO head and the free stack until either runs dry. Every executor owns its
// whole node (reservation = footprint, one executor per node), so no rate
// penalty and no OOM path fires and the engine's event loop itself is what
// the race detector exercises.
type fleetScaleScheduler struct {
	queue []*App  // arrival-order FIFO of apps still wanting executors
	head  int     // index of the FIFO head (popped entries are not reused)
	free  []int32 // stack of node IDs with no executor
}

func (*fleetScaleScheduler) Name() string { return "test-fleet-scale" }

func (s *fleetScaleScheduler) Prepare(c *Cluster, app *App) ProfilePlan {
	s.queue = append(s.queue, app)
	return ProfilePlan{}
}

// Observe returns a completing executor's node to the free stack: Observe
// fires once per executor at app completion or OOM kill, just before the
// engine reclaims it, so each spawn pushes exactly one entry and the stack
// never holds duplicates.
func (s *fleetScaleScheduler) Observe(c *Cluster, e *Executor, outcome ExecOutcome) {
	s.free = append(s.free, int32(e.Node.ID))
}

func (s *fleetScaleScheduler) Schedule(c *Cluster) {
	nodes := c.Nodes()
	for s.head < len(s.queue) {
		app := s.queue[s.head]
		if app.State == StateDone || app.RemainingGB <= 0 {
			s.head++
			continue
		}
		items := app.RemainingGB / float64(app.MaxExecutors)
		need := app.Job.Bench.Footprint(items)
		for len(app.Executors) < app.MaxExecutors && len(s.free) > 0 {
			idx := s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			n := nodes[idx]
			// A popped node can be stale (still draining its reclaimed
			// executor) or too small; dropping it is safe because its next
			// completion pushes it back.
			if !n.Available() || len(n.Executors) > 0 ||
				app.BlockedOn(n, c.Now()) || need > n.Spec.UsableGB() {
				continue
			}
			if _, err := c.Spawn(app, n, need, items); err != nil {
				return
			}
		}
		if len(app.Executors) < app.MaxExecutors {
			// Head-of-line app still wants nodes and the stack is dry: hold
			// it at the head (strict FIFO, no starvation of wide apps).
			return
		}
		s.head++
	}
}

// runFleetScale drives one fleet-scale open-system run and returns the
// result: a uniform fleet under a Poisson stream. The arrival rate keeps a
// 10k-node fleet near 90% utilization — loaded but stable (the FIFO drains
// between arrivals), so the run's cost is linear in the stream, not
// quadratic in a growing backlog.
func runFleetScale(t *testing.T, apps, nodes int) *Result {
	t.Helper()
	fleet, err := workload.UniformFleet(nodes, workload.PaperNode())
	if err != nil {
		t.Fatal(err)
	}
	specs := SpecsFrom(fleet)
	arrivals, err := workload.PoissonArrivals(apps, 1.5, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewHetero(DefaultConfig(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fleetScaleScheduler{free: make([]int32, 0, nodes)}
	for id := nodes - 1; id >= 0; id-- {
		sched.free = append(sched.free, int32(id)) // pop low IDs first
	}
	res, err := c.RunOpen(Submissions(arrivals), sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != apps {
		t.Fatalf("%d apps completed, want %d", len(res.Apps), apps)
	}
	for _, a := range res.Apps {
		if a.State != StateDone {
			t.Fatalf("app %d finished in state %v", a.ID, a.State)
		}
	}
	return res
}

// TestFleetScaleMillionArrivals is the engine's scale point: one million
// arrivals over a 10,000-node fleet. It proves that the engine's per-event
// cost does not grow with the fleet or the stream (the run is seconds
// natively and minutes under -race, where an O(nodes) or O(apps) scan per
// event would take hours), that the event cap scales with the stream instead
// of tripping at its fixed floor, and that every app completes without an
// OOM kill.
func TestFleetScaleMillionArrivals(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale stream: minutes under -race; skipped in -short runs")
	}
	res := runFleetScale(t, 1_000_000, 10_000)
	if res.OOMKills != 0 {
		// Whole-node reservations can never overcommit; a kill here means
		// the placement or accounting broke, not that memory ran short.
		t.Fatalf("%d OOM kills on whole-node reservations", res.OOMKills)
	}
}

// TestScaleStreamStable holds the stream of BenchmarkOpenSystemEngine10000
// and 100000 to stability under the default config, so that their wall-time
// ratio (at most 12x) measures the engine, not a backlog that grows with
// the stream. The Little's-law mean in-flight count, total sojourn over the
// makespan, must stay at most 25, and the run must end within 10,000 s of
// its last arrival. Apps admitted into the saturated fleet that keep their
// small fleet caps for life tip this stream past both.
func TestScaleStreamStable(t *testing.T) {
	sizes := []int{10_000}
	if !testing.Short() {
		sizes = append(sizes, 100_000)
	}
	for _, apps := range sizes {
		specs, subs, storm := scaleStream(t, apps)
		res := runScaleStream(t, specs, subs, storm)
		var sojourn float64
		for _, a := range res.Apps {
			sojourn += a.DoneTime - a.SubmitTime
		}
		inFlight := sojourn / res.MakespanSec
		tail := res.MakespanSec - subs[len(subs)-1].At
		t.Logf("%d apps: %.1f in flight, makespan %.0f s after the last arrival", apps, inFlight, tail)
		if inFlight > 25 {
			t.Errorf("%d apps: mean in-flight count %.1f, want at most 25", apps, inFlight)
		}
		if tail > 10_000 {
			t.Errorf("%d apps: makespan ends %.0f s after the last arrival, want at most 10000", apps, tail)
		}
	}
}
