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
// bit-for-bit like the wrapped placer alone. Over a nil placer every score
// is 0 or a negative penalty, so Dispatcher.placeApp spawns on each
// penalty-free node as its walk meets it and orders only the penalised ones.
type classAware struct {
	inner Placer
}

// NewClassAware returns a class-aware wrapper around any placement strategy;
// a nil inner placer wraps the default first-fit scan order.
func NewClassAware(inner Placer) Placer { return classAware{inner: inner} }

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

// NewPriority lifts a dispatcher-based policy into a multi-tenant
// scheduler: a copy of the dispatcher whose placer is wrapped class-aware,
// under the engine's weighted-FCFS queue ordering (the waiting set is already
// weight-ordered). A copy of a first-fit dispatcher keeps the first-fit walk
// and sets aside only the nodes that host a higher-weight tenant, to be
// tried after the penalty-free ones. With preempt set, an arriving
// high-priority application that cannot start reclaims memory from the
// newest preemptible lower-priority executors via the engine's charge-back
// path before the copy places it; a Serial copy never preempts (see
// Dispatcher.Schedule). The given dispatcher is not touched, so it stays
// usable (and re-liftable) as-is, and the copy keeps its policy name, so
// experiment tables stay comparable. The returned scheduler is a
// *Dispatcher.
func NewPriority(inner *Dispatcher, preempt bool) cluster.Scheduler {
	cp := *inner
	cp.cand, cp.waitBuf, cp.growBuf, cp.preempted, cp.lastRun = scoredNodes{}, nil, nil, nil, nil
	cp.Placer, cp.preempt = NewClassAware(cp.Placer), preempt
	return &cp
}

// preemptStarved reclaims resources for every application of the waiting
// set that has positive weight, no executor yet, and that the dispatcher
// could not place anywhere (per its own admission rules and allocation
// plan): the engine frees the fewest newest preemptible lower-priority
// executors on a single node. Apps that already run, that the dispatcher can
// already start, classes without weight, and apps that already fired their
// one arrival-time preemption never trigger it. It reports whether any
// executor was killed.
func (d *Dispatcher) preemptStarved(c *cluster.Cluster, waiting []*cluster.App) (killed bool) {
	for _, app := range waiting {
		if app.Class.Weight <= 0 || len(app.Executors) > 0 || d.preempted[app.ID] {
			continue
		}
		if d.placeable(c, app) {
			continue
		}
		var cpu float64
		if d.CheckCPU {
			// Policies with a CPU admission rule starve on CPU headroom too;
			// reclaiming an executor frees its demand along with its memory.
			cpu = app.Job.Bench.CPULoad
		}
		if c.PreemptFor(app, d.needGB(app), cpu, d.MaxAppsPerNode) > 0 {
			if d.preempted == nil {
				d.preempted = map[int]bool{}
			}
			d.preempted[app.ID] = true
			killed = true
		}
	}
	return killed
}

// placeable reports whether the dispatcher could start the app right now:
// some node passes its admission checks (availability, blacklist, per-node
// app cap, CPU rule, minimum free memory) and its allocation plan yields a
// spawnable executor there. Only open nodes can pass, so only they are
// walked. Preemption that fires anyway would kill batch work for a placement
// that needed none.
func (d *Dispatcher) placeable(c *cluster.Cluster, app *cluster.App) bool {
	demand := app.Job.Bench.CPULoad
	est, haveEst := estimateOf(app)
	for n := range c.OpenNodes() {
		if !app.CanUse(n, c.Now()) || !d.admits(n, demand) {
			continue
		}
		if _, _, ok := d.plan(app, n, n.FreeGB(), est, haveEst); ok {
			return true
		}
	}
	return false
}

// needGB estimates the reservation the starved application wants for its
// first executor: the predicted footprint of its fair share under the
// estimate and safety margin, or the platform's default heap (half an
// allocatable reference node) when the app has no prediction. The engine
// clamps the demand per node, so an oversized ask degrades to a whole-node
// takeover rather than unreachability.
func (d *Dispatcher) needGB(app *cluster.App) float64 {
	if est, ok := estimateOf(app); ok {
		if need := est.Footprint(remainingShare(app)) * (1 + d.SafetyMargin); need > 0 {
			return need
		}
	}
	return cluster.ReferenceNode().AllocatableGB() / 2
}
