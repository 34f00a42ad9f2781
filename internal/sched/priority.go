package sched

import (
	"moespark/internal/cluster"
)

// NewPriority lifts a dispatcher-based policy into a multi-tenant
// scheduler: a copy of the dispatcher under the engine's weighted-FCFS
// queue ordering (the waiting set is already weight-ordered) whose
// placement is class-aware. Each candidate node is ranked first by how many
// executors of a strictly higher class weight it hosts, fewest first, and
// only then by the Placer's score and node order, so batch work steers
// away from nodes running latency-sensitive executors whatever the scores
// span. Single-class runs, where no executor ever outranks another, place
// bit-for-bit like the dispatcher itself. With preempt set, an arriving
// high-priority application that cannot start reclaims memory from the
// newest preemptible lower-priority executors via the engine's charge-back
// path before the copy places it; a Serial copy never preempts (see
// Dispatcher.Schedule). The given dispatcher is not touched, so it stays
// usable (and re-liftable) as-is, and the copy keeps its policy name, so
// experiment tables stay comparable.
func NewPriority(inner *Dispatcher, preempt bool) *Dispatcher {
	cp := *inner
	cp.cand, cp.waitBuf, cp.growBuf, cp.preempted, cp.lastRun = nil, nil, nil, nil, nil
	cp.classTiers, cp.preempt = true, preempt
	return &cp
}

// outranking counts the executors on n whose class weight is strictly
// higher than app's: a class-aware copy's placement tier for n.
func outranking(app *cluster.App, n *cluster.Node) int {
	k := 0
	for _, e := range n.Executors {
		if e.App.Class.Weight > app.Class.Weight {
			k++
		}
	}
	return k
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
