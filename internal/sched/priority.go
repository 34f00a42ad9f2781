package sched

import (
	"moespark/internal/cluster"
)

// classPenalty is the per-co-runner score penalty the class-aware placer
// applies when a candidate node already hosts a strictly-higher-weight
// tenant. It dominates every built-in placer's score range (free memory in
// GB, speed factors near 1), so priority avoidance acts lexicographically
// before the wrapped placer's own preference.
const classPenalty = 1e6

// classAware wraps any Placer with tenant-priority awareness: candidates
// hosting higher-weight tenants are ranked below all others, steering batch
// work away from nodes running latency-sensitive executors. Within a
// penalty tier the wrapped placer's score (or scan order for nil) decides,
// so single-class runs — where no executor ever outranks another — score
// bit-for-bit like the wrapped placer alone.
type classAware struct {
	inner Placer
}

// NewClassAware returns a class-aware wrapper around any placement strategy;
// a nil inner placer wraps the default first-fit scan order.
func NewClassAware(inner Placer) Placer { return classAware{inner: inner} }

// Name implements Placer.
func (p classAware) Name() string {
	if p.inner == nil {
		return "class-aware"
	}
	return "class-aware+" + p.inner.Name()
}

// Score implements Placer.
func (p classAware) Score(c *cluster.Cluster, app *cluster.App, n *cluster.Node) float64 {
	var penalty float64
	for _, e := range n.Executors {
		if e.App.Class.Weight > app.Class.Weight {
			penalty++
		}
	}
	var base float64
	if p.inner != nil {
		base = p.inner.Score(c, app, n)
	}
	return base - penalty*classPenalty
}

// priority lifts any Dispatcher-based policy into a multi-tenant scheduler:
// the engine's weighted-FCFS queue ordering applies (the waiting set is
// already weight-ordered), the dispatcher's placer is wrapped class-aware,
// and — when preemption is enabled — an arriving high-priority application
// that cannot start reclaims memory from the newest preemptible
// lower-priority executors via the engine's charge-back path before the
// dispatcher places it.
type priority struct {
	inner   *Dispatcher
	preempt bool
	waitBuf []*cluster.App
	// preempted remembers which apps already fired their arrival-time
	// preemption (by app ID): each high-priority arrival reclaims memory at
	// most once, so a job that stays unplaceable for other reasons (CPU
	// admission, blacklists) cannot grind down batch work event after event.
	// App IDs restart at 0 per cluster, so the map is cleared whenever the
	// wrapper is pointed at a new cluster (scheduler reuse across runs).
	preempted map[int]bool
	lastRun   *cluster.Cluster
}

var (
	_ cluster.Scheduler = (*priority)(nil)
	_ cluster.Observer  = (*priority)(nil)
)

// NewPriority wraps a dispatcher-based policy with class-aware placement
// and, when preempt is set, arrival-time preemption of preemptible
// lower-priority executors. The given dispatcher is not touched: the
// wrapper schedules through a private copy whose placer is wrapped
// class-aware, so the original stays usable (and re-wrappable) as-is. The
// wrapper keeps the inner policy's name, so experiment tables stay
// comparable.
func NewPriority(inner *Dispatcher, preempt bool) cluster.Scheduler {
	cp := *inner
	cp.cand = scoredNodes{}
	cp.waitBuf = nil
	cp.Placer = NewClassAware(cp.Placer)
	return &priority{inner: &cp, preempt: preempt}
}

// Name implements cluster.Scheduler.
func (p *priority) Name() string { return p.inner.Name() }

// Prepare implements cluster.Scheduler.
func (p *priority) Prepare(c *cluster.Cluster, app *cluster.App) cluster.ProfilePlan {
	return p.inner.Prepare(c, app)
}

// Observe implements cluster.Observer by delegating to the inner dispatcher,
// so a priority-wrapped adaptive scheme still receives its feedback.
func (p *priority) Observe(c *cluster.Cluster, e *cluster.Executor, outcome cluster.ExecOutcome) {
	p.inner.Observe(c, e, outcome)
}

// Schedule implements cluster.Scheduler: preempt for starved high-priority
// arrivals first (so the freed memory is still free when the inner
// dispatcher walks the weight-ordered queue), then delegate.
func (p *priority) Schedule(c *cluster.Cluster) {
	if p.preempt {
		if p.lastRun != c {
			p.lastRun = c
			clear(p.preempted)
		}
		p.preemptStarved(c)
	}
	p.inner.Schedule(c)
}

// preemptStarved reclaims resources for every waiting positive-weight
// application that has no executor yet and that the inner dispatcher could
// not place anywhere (per its own admission rules and allocation plan): the
// engine frees the fewest newest preemptible lower-priority executors on a
// single node. Apps that already run, that the dispatcher can already
// start, classes without weight, and apps that already fired their one
// arrival-time preemption never trigger it.
func (p *priority) preemptStarved(c *cluster.Cluster) {
	p.waitBuf = c.AppendWaitingApps(p.waitBuf[:0])
	for _, app := range p.waitBuf {
		if app.Class.Weight <= 0 || len(app.Executors) > 0 || p.preempted[app.ID] {
			continue
		}
		if p.placeable(c, app) {
			continue
		}
		var cpu float64
		if p.inner.CheckCPU {
			// Policies with a CPU admission rule starve on CPU headroom too;
			// reclaiming an executor frees its demand along with its memory.
			cpu = app.Job.Bench.CPULoad
		}
		if c.PreemptFor(app, p.needGB(app), cpu, p.inner.MaxAppsPerNode) > 0 {
			if p.preempted == nil {
				p.preempted = map[int]bool{}
			}
			p.preempted[app.ID] = true
		}
	}
}

// placeable reports whether the inner dispatcher could start the app right
// now: some node passes the dispatcher's admission checks (availability,
// blacklist, per-node app cap, CPU rule, minimum free memory) and the
// dispatcher's allocation plan yields a spawnable executor there.
// Preemption that fires anyway would kill batch work for a placement that
// needed none.
func (p *priority) placeable(c *cluster.Cluster, app *cluster.App) bool {
	demand := app.Job.Bench.CPULoad
	var est MemEstimate
	haveEst := false
	if p.inner.Est != nil {
		est, haveEst = p.inner.Est.Estimate(app)
	}
	for _, n := range c.Nodes() {
		if !n.Available() || app.ExecutorOn(n) || (app.BlockedOn(n, c.Now()) && len(n.Executors) > 0) {
			continue
		}
		if p.inner.MaxAppsPerNode > 0 && n.AppCount() >= p.inner.MaxAppsPerNode {
			continue
		}
		if p.inner.CheckCPU && n.CPUDemand()+demand > n.CPUCapacity()+1e-9 {
			continue
		}
		free := n.FreeGB()
		if free <= cluster.MinChunkGB {
			continue
		}
		if _, _, ok := p.inner.plan(app, n, free, est, haveEst); ok {
			return true
		}
	}
	return false
}

// needGB estimates the reservation the starved application wants for its
// first executor: the predicted footprint of its fair share under the inner
// policy's estimator and safety margin, or the platform's default heap (half
// an allocatable reference node) when the policy predicts nothing. The
// engine clamps the demand per node, so an oversized ask degrades to a
// whole-node takeover rather than unreachability.
func (p *priority) needGB(app *cluster.App) float64 {
	if p.inner.Est != nil {
		if est, ok := p.inner.Est.Estimate(app); ok {
			if need := est.Footprint(remainingShare(app)) * (1 + p.inner.SafetyMargin); need > 0 {
				return need
			}
		}
	}
	return cluster.ReferenceNode().AllocatableGB() / 2
}
