package cluster

import "math"

// Graceful drain migration (Config.MigrateOnDrain): instead of letting a
// draining node's executors run to completion in place — leaving the node in
// the fleet's bookkeeping for the rest of their lifetimes, and leaving them
// exposed if the drain was the warning phase of a failure — the engine
// checkpoints each executor and moves its work to a safe node. Two moves
// exist, tried in order:
//
//  1. Relocation: the executor moves intact to a node where its app has no
//     executor yet, keeping its reservation and allocation. The cost model
//     gates its rate at zero on the new node for
//
//     processedGB / migrateCheckpointGBps + migrateRestartSec
//
//     seconds (serialize, ship and rehydrate the state it has built, then
//     pay the container/JVM restart), carried by Executor.gateUntil and
//     woken through the same wake-heap machinery as the app-level startup
//     gate.
//
//  2. Handoff: when the app already has an executor on every feasible node
//     (large apps legitimately span the fleet) or no node has room, the
//     draining executor checkpoints its state into a sibling executor on a
//     safe node — Spark's graceful decommission shipping blocks to peers —
//     and leaves the fleet without any charge-back: the work it processed
//     stays done. The receiving sibling is gated for the ship time
//     processedGB / migrateCheckpointGBps (no restart: the receiver is
//     already running).
//
// Executors with no feasible relocation target and no sibling stay put and
// run to completion in place (the pre-migration drain semantics).
//
// Everything here follows the settle discipline (see eventindex.go): the
// app settles under the rates that held up to this instant BEFORE the
// executor changes nodes, both nodes are dirtied so the next rate pass
// recomputes them, and the touch queues the deadline refresh. migrateFrom,
// migrateExecutor and handoffExecutor are registered settle touch points for
// the moevet settledstate analyzer.

// migrateFrom evacuates every executor on a draining node, in spawn order:
// relocation when a fresh node qualifies, handoff into a sibling otherwise.
func (c *Cluster) migrateFrom(n *Node) {
	// Walk a snapshot: each successful migration removes the executor from
	// n.Executors in place.
	c.victimBuf = append(c.victimBuf[:0], n.Executors...)
	for _, e := range c.victimBuf {
		if !c.migrateExecutor(e) {
			c.handoffExecutor(e)
		}
	}
	// A handed-off executor is freed and recycled: drop the snapshot.
	clear(c.victimBuf[:cap(c.victimBuf)])
}

// migrateExecutor checkpoints one executor and moves it to the first
// feasible node in node-scan order: one the app can use (App.CanUse, which
// rules out the executor's own node) with enough free memory for the
// executor's reservation as is. Returns false when no node qualifies and
// the executor stays where it is.
func (c *Cluster) migrateExecutor(e *Executor) bool {
	const eps = 1e-9
	app := e.App
	var target *Node
	for _, cand := range c.nodes {
		if !app.CanUse(cand, c.now) || e.ReservedGB > cand.FreeGB()+eps {
			continue
		}
		target = cand
		break
	}
	if target == nil {
		return false
	}
	// Settle the app's progress (and this executor's processedGB) under the
	// rates that held up to this instant, then queue the deadline refresh:
	// the checkpoint size must be the work actually done, and the app may
	// keep executors on clean nodes the dirty marks below would not touch.
	c.settleApp(app)
	c.touchApp(app)
	c.unplace(e)
	// A shrunken executor takes its count along.
	e.countShrunk(-1)
	e.Node = target
	e.countShrunk(1)
	target.Executors = append(target.Executors, e)
	target.recount()
	c.markDirty(target)
	cost := migrateRestartSec + e.processedGB/migrateCheckpointGBps
	e.gateUntil = c.now + cost
	app.Migrations++
	c.totalMigrations++
	return true
}

// handoffExecutor retires the draining executor into the app's first sibling
// executor on an available node (node-scan order): the executor's state
// ships to the sibling, which is gated for the transfer time, and the
// executor leaves without charging any work back — its processed items stay
// processed, and the app's remaining work keeps flowing through the
// surviving fleet. Returns false when the app has no sibling on a safe node.
func (c *Cluster) handoffExecutor(e *Executor) bool {
	app := e.App
	// Ship to the least-gated sibling (ties keep node-scan order): a
	// correlated storm hands several executors of the same app off in one
	// batch, and always picking the first sibling would serialize every
	// transfer behind one receiver.
	var sibling *Executor
	for _, cand := range c.nodes {
		if !cand.Available() || cand == e.Node {
			continue
		}
		for _, x := range cand.Executors {
			if x.App == app {
				if sibling == nil || x.gateUntil < sibling.gateUntil {
					sibling = x
				}
				break // at most one executor per app per node
			}
		}
	}
	if sibling == nil {
		return false
	}
	// Settle first: the ship cost reads processedGB, and removeExecutor
	// changes the app's rate structure and frees e. The touch queues the
	// deadline refresh for the app's executors on clean nodes.
	c.settleApp(app)
	c.touchApp(app)
	ship := e.processedGB / migrateCheckpointGBps
	c.removeExecutor(e)
	if gate := c.now + ship; gate > sibling.gateUntil {
		sibling.gateUntil = gate
	}
	c.markDirty(sibling.Node)
	app.Migrations++
	c.totalMigrations++
	return true
}

// blacklistUntil returns the expiry of a new OOM blacklist entry for the
// app: permanent (+Inf) under the legacy policy (OOMRetryBudget 0) or once
// the app's budget is spent, otherwise a cool-off that doubles with every
// retry already consumed — deterministic exponential backoff, seeded only by
// the run itself.
func (c *Cluster) blacklistUntil(a *App) float64 {
	if c.cfg.OOMRetryBudget <= 0 || a.OOMRetries >= c.cfg.OOMRetryBudget {
		return permanentBlock
	}
	cool := oomCoolOffSec * math.Ldexp(1, a.OOMRetries)
	a.OOMRetries++
	c.totalRetries++
	return c.now + cool
}
