package cluster

import (
	"errors"
	"math"
	"slices"
)

// Executor recycling. A packed fleet spawns and frees executors on nearly
// every event, so the cluster keeps what finished executors leave behind
// instead of handing it to the garbage collector:
//
//   - freeExecs holds executors freed by app completion, OOM kills, node
//     failures, preemption and drain handoffs. Spawn reuses the newest one
//     with a single whole-struct write.
//   - freeFleets holds the App.Executors backing arrays of completed apps,
//     indexed by capacity. An app's first Spawn takes one whose capacity is
//     the larger of its MaxExecutors and its free-fleet size (or makes one),
//     so the list grows neither per spawn nor as refreshFleetCaps raises
//     the cap.
//
// The cluster owns every executor. A scheduler or observer may use one only
// within the call that passed it (Schedule, Observe) and must keep no
// *Executor past it. A freed executor is poisoned, so a pointer kept too
// long reads no app, no node and NaN sizes instead of stale numbers, but
// only until Spawn reuses the executor for another app.

// errFreedExecutor is returned by Grow and Preempt for a poisoned executor.
var errFreedExecutor = errors.New("cluster: executor was freed; keep no *Executor past the call that passed it")

// detach removes e from list in place and returns the shortened list. It
// keeps the order of the rest, because recount sums a node's executors in
// list order and every result depends on those sums bit for bit, and it
// zeroes the vacated tail slot so the backing array holds no freed
// executor.
func detach(list []*Executor, e *Executor) []*Executor {
	if i := slices.Index(list, e); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// release poisons a detached executor and puts it on the free list.
func (c *Cluster) release(e *Executor) {
	nan := math.NaN()
	*e = Executor{
		ReservedGB: nan, ItemsGB: nan, NeedGB: nan, ActualGB: nan,
		Demand: nan, FairShareGB: nan, SpawnTime: nan, PredictedGB: nan,
	}
	c.freeExecs = append(c.freeExecs, e)
}

// newExecutor returns a freed executor for Spawn to overwrite, or a new one
// when the free list is empty.
func (c *Cluster) newExecutor() *Executor {
	if n := len(c.freeExecs); n > 0 {
		e := c.freeExecs[n-1]
		c.freeExecs[n-1] = nil
		c.freeExecs = c.freeExecs[:n-1]
		return e
	}
	return new(Executor)
}

// takeFleet returns an empty executor list with capacity k, reusing a
// completed app's backing array of that capacity when one is free.
func (c *Cluster) takeFleet(k int) []*Executor {
	if k < len(c.freeFleets) {
		if free := c.freeFleets[k]; len(free) > 0 {
			list := free[len(free)-1]
			free[len(free)-1] = nil
			c.freeFleets[k] = free[:len(free)-1]
			return list
		}
	}
	return make([]*Executor, 0, k)
}

// releaseFleet hands a completed app's executor list back to the cluster,
// cleared, and leaves the app with none. Slots past the list's length are
// nil already: detach zeroes each slot it vacates.
func (c *Cluster) releaseFleet(a *App) {
	k := cap(a.Executors)
	if k == 0 {
		return
	}
	for k >= len(c.freeFleets) {
		c.freeFleets = append(c.freeFleets, nil)
	}
	clear(a.Executors)
	c.freeFleets[k] = append(c.freeFleets[k], a.Executors[:0])
	a.Executors = nil
}
