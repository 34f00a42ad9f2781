package sched

import (
	"slices"

	"moespark/internal/cluster"
	"moespark/internal/moe"
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

	// classTiers, set only on a NewPriority copy, ranks each candidate node
	// by its executors of a strictly higher class weight before the
	// Placer's score (see placeApp).
	classTiers bool
	// preempt, set only on a NewPriority copy, makes Schedule reclaim
	// memory for starved high-priority arrivals before placing. A Serial
	// dispatcher never does: it starts only the FCFS head, which would take
	// back any node freed for another app.
	preempt bool
	// preempted remembers which apps already fired their arrival-time
	// preemption (by app ID): each high-priority arrival reclaims memory at
	// most once, so a job that stays unplaceable for other reasons (CPU
	// admission, blacklists) cannot grind down batch work event after event.
	// App IDs restart at 0 per cluster, so the map is cleared whenever the
	// dispatcher is pointed at a new cluster (lastRun).
	preempted map[int]bool
	lastRun   *cluster.Cluster

	// Reusable scratch buffers: Schedule sits on the simulation's hottest
	// path, and regrowing these every call shows up in the placement
	// benchmark.
	cand    []candidate
	waitBuf []*cluster.App
	growBuf []*cluster.Executor
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

// Observe implements cluster.Observer: when the estimator's predictor is a
// moe.Learner, it is told the executor's realised footprint against the
// prediction its app was planned with; otherwise the report is dropped.
// Forwarding only ever updates model state, never cluster state. An
// executor's prediction is est.Footprint(e.ItemsGB) of its app's estimate,
// which never changes after Prepare.
func (d *Dispatcher) Observe(_ *cluster.Cluster, e *cluster.Executor, _ cluster.ExecOutcome) {
	m, ok := d.Est.(*moeEstimator)
	if !ok || m.learner == nil {
		return
	}
	if est, ok := estimateOf(e.App); ok && est.pred != nil {
		m.learner.Observe(moe.Observation{Prediction: est.pred, ItemsGB: e.ItemsGB, ActualGB: e.NeedGB})
	}
}

// Schedule implements cluster.Scheduler. A preempting copy first reclaims
// memory for starved high-priority arrivals, so the freed memory is still
// free when the placement passes walk the weight-ordered queue.
func (d *Dispatcher) Schedule(c *cluster.Cluster) {
	if d.Serial {
		d.scheduleSerial(c)
		return
	}
	d.placeWaiting(c)
	// Third pass: dynamically adjust the data allocation of running
	// executors as memory frees up (Section 4.3: "the number of data items
	// to give to the co-located executor is dynamically adjusted over
	// time").
	if d.Est != nil {
		d.growBuf = c.TakeGrowable(d.growBuf[:0])
		d.growExecutors(c, d.growBuf)
		// Keep no executor past the call: the cluster recycles them.
		clear(d.growBuf)
	}
}

// placeWaiting runs the placement passes over the waiting set, after the
// preemption pass of a preempting copy.
func (d *Dispatcher) placeWaiting(c *cluster.Cluster) {
	waiting := d.appendWaiting(c)
	if d.preempt {
		if d.lastRun != c {
			d.lastRun = c
			clear(d.preempted)
		}
		// A preemption pass that killed nothing changed nothing, so the
		// set it walked is still the waiting set.
		if d.preemptStarved(c, waiting) {
			waiting = d.appendWaiting(c)
		}
	}
	// Two passes: applications with no executor yet go first so waiting
	// jobs start as soon as possible (Section 4.3), then everyone grows
	// towards its fleet cap, FCFS within each pass.
	for _, app := range waiting {
		if len(app.Executors) == 0 {
			d.placeApp(c, app)
		}
	}
	for _, app := range waiting {
		d.placeApp(c, app)
	}
}

// appendWaiting fills the reusable waiting-queue buffer without allocating
// per call.
func (d *Dispatcher) appendWaiting(c *cluster.Cluster) []*cluster.App {
	d.waitBuf = c.AppendWaitingApps(d.waitBuf[:0])
	return d.waitBuf
}

// growExecutors widens the data allocations of the listed executors toward
// their fair shares when their node has free memory, visiting them in list
// order. Schedule lists what cluster.TakeGrowable returns: the widenable
// executors (ItemsGB*GrowChurn < FairShareGB) on nodes with more than
// GrowMinFreeGB free whose decision below can have changed since the
// previous pass. The decision, min(clampItems(est.Items((ReservedGB+free)/
// margin), RemainingGB), FairShareGB) > ItemsGB*GrowChurn, can only turn
// true when the node's free memory or the app's remaining work rises, and
// each such rise marks the node for the next query; so the pass grows
// exactly what a walk of every running app's executors would grow, in the
// same order. The query consumes the engine's marks, so this pass must stay
// its only caller.
func (d *Dispatcher) growExecutors(c *cluster.Cluster, execs []*cluster.Executor) {
	margin := 1 + d.SafetyMargin
	for _, e := range execs {
		// An earlier grow in this pass may have taken the node's memory.
		free := e.Node.FreeGB()
		if free <= cluster.GrowMinFreeGB {
			continue
		}
		est, ok := estimateOf(e.App)
		if !ok {
			continue
		}
		items := clampItems(est.Items((e.ReservedGB+free)/margin), e.App.RemainingGB)
		if items > e.FairShareGB {
			items = e.FairShareGB
		}
		if items <= e.ItemsGB*cluster.GrowChurn {
			continue // not worth the churn
		}
		reserve := est.Footprint(items) * margin
		if reserve > e.ReservedGB+free {
			reserve = e.ReservedGB + free
		}
		if reserve < e.ReservedGB {
			reserve = e.ReservedGB
		}
		// A refused grow leaves the executor as it was.
		_ = c.Grow(e, reserve, items)
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

// placeApp tries to spawn executors for one application on compatible
// nodes in placement order: on a NewPriority copy, fewest executors of a
// strictly higher class weight first; then best Placer score; then node
// order. Only open nodes can pass admission, so only they are walked. A
// spawn changes only its own node and the app, so no other node's
// admission, tier, score or plan moves: spawning during the walk places
// exactly what gathering every candidate first would have placed. Under
// first fit (a nil Placer) no node outranks a tier-0 node met earlier in
// the walk, so the walk spawns on each tier-0 node as it meets it and stops
// once the fleet is full; only higher-tier nodes are kept, and they are
// tried in order after the walk. A Placer keeps every candidate. The kept
// candidates are sorted stably by tier, then descending score, so equal
// ranks keep node-scan order.
func (d *Dispatcher) placeApp(c *cluster.Cluster, app *cluster.App) {
	if !wantsExecutor(app) {
		return
	}
	demand := app.Job.Bench.CPULoad
	// The estimate is app-level state: fetch it once per placement pass and
	// thread it through planning.
	est, haveEst := estimateOf(app)
	d.cand = d.cand[:0]
	for n := range c.OpenNodes() {
		if !app.CanUse(n, c.Now()) || !d.admits(n, demand) {
			continue
		}
		var tier int
		if d.classTiers {
			tier = outranking(app, n)
		}
		if d.Placer != nil {
			d.cand = append(d.cand, candidate{n, tier, d.Placer.Score(app, n)})
			continue
		}
		if tier > 0 {
			d.cand = append(d.cand, candidate{n, tier, 0})
			continue
		}
		d.spawnOn(c, app, n, est, haveEst)
		if !wantsExecutor(app) {
			return
		}
	}
	slices.SortStableFunc(d.cand, compareCandidates)
	for _, k := range d.cand {
		if !wantsExecutor(app) {
			return
		}
		d.spawnOn(c, app, k.node, est, haveEst)
	}
}

// admits applies the dispatcher's own admission rules to a node the app can
// use: the per-node app cap, the aggregate-CPU rule for an executor of the
// given demand, and the minimum free memory. It is kept small enough to
// inline into placeApp and placeable, the two node walks on the hot path.
func (d *Dispatcher) admits(n *cluster.Node, demand float64) bool {
	return (d.MaxAppsPerNode <= 0 || n.AppCount() < d.MaxAppsPerNode) &&
		!(d.CheckCPU && n.CPUDemand()+demand > n.CPUCapacity()+1e-9) &&
		!(n.FreeGB() <= cluster.MinChunkGB)
}

// spawnOn places one executor of app on candidate n when the plan fits. A
// refused spawn leaves the app to the next candidate.
func (d *Dispatcher) spawnOn(c *cluster.Cluster, app *cluster.App, n *cluster.Node, est MemEstimate, haveEst bool) {
	if reserve, items, ok := d.plan(app, n, n.FreeGB(), est, haveEst); ok {
		_, _ = c.Spawn(app, n, reserve, items)
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
