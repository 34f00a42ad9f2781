package sched

import (
	"moespark/internal/cluster"
)

// Dispatcher is the paper's job dispatcher (Section 4.3) generalised over
// estimators and placement strategies. It walks the FCFS queue on every
// scheduling event and spawns executors on nodes with spare reserved memory,
// provided the aggregate CPU load stays under the node's capacity. Candidate
// nodes are ranked by the Placer; the default reproduces the historical
// first-fit scan exactly.
type Dispatcher struct {
	// PolicyName is reported by Name().
	PolicyName string
	// Est supplies memory predictions; nil disables prediction (Pairwise).
	Est Estimator
	// Placer ranks admissible candidate nodes for each placement; nil means
	// first fit in node-scan order (the historical behaviour).
	Placer Placer
	// Serial restricts execution to one application at a time (the
	// isolated-execution baseline).
	Serial bool
	// MaxAppsPerNode caps distinct applications per node (Pairwise uses 2);
	// 0 means bounded only by memory and CPU.
	MaxAppsPerNode int
	// ReserveAllFree makes a co-located executor reserve the node's entire
	// free memory (the Pairwise heap policy).
	ReserveAllFree bool
	// SafetyMargin over-provisions predicted footprints by this fraction.
	SafetyMargin float64
	// CheckCPU enforces the dispatcher's aggregate-CPU admission rule.
	CheckCPU bool

	// Reusable scratch buffers: Schedule sits on the simulation's hottest
	// path, and regrowing these every call shows up in the placement
	// benchmark.
	cand    scoredNodes
	waitBuf []*cluster.App
}

var (
	_ cluster.Scheduler = (*Dispatcher)(nil)
	_ cluster.Observer  = (*Dispatcher)(nil)
)

// Name implements cluster.Scheduler.
func (d *Dispatcher) Name() string { return d.PolicyName }

// Prepare implements cluster.Scheduler by delegating to the estimator.
func (d *Dispatcher) Prepare(_ *cluster.Cluster, app *cluster.App) cluster.ProfilePlan {
	if d.Est == nil {
		return cluster.ProfilePlan{}
	}
	return d.Est.Prepare(app)
}

// Observe implements cluster.Observer: realised footprints are forwarded to
// the estimator when it participates in the online prediction pipeline, and
// dropped otherwise. Forwarding only ever updates model state, never cluster
// state, so non-adaptive estimators behave exactly as before.
func (d *Dispatcher) Observe(_ *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome) {
	if obs, ok := d.Est.(ObservingEstimator); ok {
		obs.Observe(e, outcome)
	}
}

// Schedule implements cluster.Scheduler.
func (d *Dispatcher) Schedule(c *cluster.Cluster) {
	if d.Serial {
		d.scheduleSerial(c)
		return
	}
	// Two passes: applications with no executor yet go first so waiting
	// jobs start as soon as possible (Section 4.3), then everyone grows
	// towards its fleet cap, FCFS within each pass.
	waiting := d.appendWaiting(c)
	for _, app := range waiting {
		if len(app.Executors) == 0 {
			d.placeApp(c, app)
		}
	}
	for _, app := range waiting {
		d.placeApp(c, app)
	}
	// Third pass: dynamically adjust the data allocation of running
	// executors as memory frees up (Section 4.3: "the number of data items
	// to give to the co-located executor is dynamically adjusted over
	// time"). Only the active set can contain running apps, so the walk
	// stays proportional to in-flight work on long arrival streams.
	if d.Est != nil {
		for _, app := range c.ActiveApps() {
			if app.State == cluster.StateRunning {
				d.growExecutors(c, app)
			}
		}
	}
}

// appendWaiting fills the reusable waiting-queue buffer without allocating
// per call.
func (d *Dispatcher) appendWaiting(c *cluster.Cluster) []*cluster.App {
	d.waitBuf = c.AppendWaitingApps(d.waitBuf[:0])
	return d.waitBuf
}

// growExecutors widens shrunken data allocations toward the fair share when
// their node has free memory. An app with no shrunken executor has nothing
// to grow, and the estimate is fetched only once an executor can grow.
func (d *Dispatcher) growExecutors(c *cluster.Cluster, app *cluster.App) {
	if app.ShrunkenExecutors() == 0 {
		return
	}
	var est MemEstimate
	haveEst := false
	margin := 1 + d.SafetyMargin
	for _, e := range app.Executors {
		if e.ItemsGB >= e.FairShareGB {
			continue
		}
		free := e.Node.FreeGB()
		if free <= 0.5 {
			continue
		}
		if !haveEst {
			var ok bool
			if est, ok = d.Est.Estimate(app); !ok {
				return
			}
			haveEst = true
		}
		items := clampItems(est.Items((e.ReservedGB+free)/margin), app.RemainingGB)
		if items > e.FairShareGB {
			items = e.FairShareGB
		}
		if items <= e.ItemsGB*1.05 {
			continue // not worth the churn
		}
		reserve := est.Footprint(items) * margin
		if reserve > e.ReservedGB+free {
			reserve = e.ReservedGB + free
		}
		if reserve < e.ReservedGB {
			reserve = e.ReservedGB
		}
		if c.Grow(e, reserve, items) == nil {
			// Grow may clamp the allocation to the remaining work; restamp
			// the prediction for what was actually granted.
			e.PredictedGB = est.Footprint(e.ItemsGB)
		}
	}
}

// scheduleSerial runs the FCFS head exclusively: executors get whole nodes
// with all their memory, and no other application starts until it finishes.
// The active set is FCFS-ordered and holds exactly the non-done apps, so its
// first entry is the head the full scan used to find.
func (d *Dispatcher) scheduleSerial(c *cluster.Cluster) {
	var head *cluster.App
	if active := c.ActiveApps(); len(active) > 0 {
		head = active[0]
	}
	if head == nil || (head.State != cluster.StateReady && head.State != cluster.StateRunning) {
		return
	}
	for _, n := range c.Nodes() {
		if len(head.Executors) >= head.MaxExecutors || head.RemainingGB <= 0 {
			return
		}
		if !n.Available() || len(n.Executors) > 0 || head.ExecutorOn(n) {
			continue
		}
		share := remainingShare(head)
		if _, err := c.Spawn(head, n, n.AllocatableGB(), share); err != nil {
			continue
		}
	}
}

// remainingShare is the fair data allocation for the app's next executor.
func remainingShare(app *cluster.App) float64 {
	slots := app.MaxExecutors - len(app.Executors)
	if slots < 1 {
		slots = 1
	}
	return app.RemainingGB / float64(slots)
}

// wantsExecutor reports whether the app has work left and room in its
// executor fleet.
func wantsExecutor(app *cluster.App) bool {
	return len(app.Executors) < app.MaxExecutors && app.RemainingGB > 0
}

// placeApp tries to spawn executors for one application on compatible nodes,
// best Placer score first. Admission checks are independent across nodes
// (a spawn on one node changes neither another node's free memory nor its
// CPU demand), so gathering candidates before spawning places exactly the
// executors the interleaved first-fit scan used to.
func (d *Dispatcher) placeApp(c *cluster.Cluster, app *cluster.App) {
	if !wantsExecutor(app) {
		return
	}
	demand := app.Job.Bench.CPULoad
	// The estimate is app-level state: fetch it once per placement pass and
	// thread it through planning and the PredictedGB stamp, so the stamp is
	// guaranteed to come from the same estimate the plan used.
	var est MemEstimate
	haveEst := false
	if d.Est != nil {
		est, haveEst = d.Est.Estimate(app)
	}
	d.cand.reset()
	for _, n := range c.Nodes() {
		if !n.Available() {
			continue
		}
		if app.ExecutorOn(n) || (app.BlockedOn(n, c.Now()) && len(n.Executors) > 0) {
			continue
		}
		if d.MaxAppsPerNode > 0 && n.AppCount() >= d.MaxAppsPerNode {
			continue
		}
		if d.CheckCPU && n.CPUDemand()+demand > n.CPUCapacity()+1e-9 {
			continue
		}
		if n.FreeGB() <= cluster.MinChunkGB {
			continue
		}
		score := 0.0
		if d.Placer != nil {
			score = d.Placer.Score(c, app, n)
		}
		d.cand.add(n, score)
	}
	if d.Placer == nil {
		// First fit: candidates in gather (node-scan) order.
		for _, n := range d.cand.nodes {
			if !wantsExecutor(app) {
				return
			}
			d.spawnOn(c, app, n, est, haveEst)
		}
		return
	}
	// Best first: pop only until the fleet is full, so the candidates it
	// never reaches are never ordered.
	d.cand.heapify()
	for len(d.cand.nodes) > 0 && wantsExecutor(app) {
		d.spawnOn(c, app, d.cand.pop(), est, haveEst)
	}
}

// spawnOn places one executor of app on candidate n when the plan fits.
func (d *Dispatcher) spawnOn(c *cluster.Cluster, app *cluster.App, n *cluster.Node, est MemEstimate, haveEst bool) {
	reserve, items, ok := d.plan(app, n, n.FreeGB(), est, haveEst)
	if !ok {
		return
	}
	e, err := c.Spawn(app, n, reserve, items)
	if err != nil {
		return
	}
	if haveEst {
		// Spawn may clamp the allocation to the remaining work; stamp the
		// prediction for what was actually granted so the observation hook
		// compares like with like.
		e.PredictedGB = est.Footprint(e.ItemsGB)
	}
}

// plan decides the reservation and data allocation for a prospective
// executor given the node's free memory and the app's estimate (fetched
// once by the caller — it is app-level, not node-level, state).
func (d *Dispatcher) plan(app *cluster.App, n *cluster.Node, free float64, est MemEstimate, haveEst bool) (reserve, items float64, ok bool) {
	share := remainingShare(app)
	if !haveEst {
		// No prediction: Spark-default allocation. The first executor on a
		// node takes the default heap (half the node); a co-located one
		// takes all free memory (the Pairwise policy). Items follow the
		// Spark default scheduler: the fair share.
		if d.ReserveAllFree && len(n.Executors) > 0 {
			return free, share, true
		}
		half := n.AllocatableGB() / 2
		if half > free {
			half = free
		}
		return half, share, true
	}
	margin := 1 + d.SafetyMargin
	need := est.Footprint(share) * margin
	if need <= free {
		return need, share, true
	}
	// Shrink the allocation to what fits the free memory.
	fit := clampItems(est.Items(free/margin), app.RemainingGB)
	if fit < cluster.MinChunkGB {
		// The model claims nothing fits. If the node is otherwise empty and
		// the application has no executor at all, run it anyway with the
		// default heap: a mispredicting model must not starve a job forever.
		if len(n.Executors) == 0 && len(app.Executors) == 0 {
			return free, share, true
		}
		return 0, 0, false
	}
	if fit > share {
		fit = share
	}
	reserve = est.Footprint(fit) * margin
	if reserve > free {
		reserve = free
	}
	return reserve, fit, true
}
