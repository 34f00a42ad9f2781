package cluster

import "math"

// This file is the engine's event index: the bookkeeping that makes one
// event-loop iteration cost proportional to *what changed* instead of to the
// size of the whole run. The scan-based engine (kept verbatim in
// engine_ref.go as the differential-testing reference) rescanned every
// application, foreign task and node on every event, making long arrival
// streams quadratic. The index splits the engine's event sources in two:
//
//   - Exact-time events — pending submissions, node lifecycle events, trace
//     samples, and executor startup expiries — have immutable absolute
//     timestamps. Submissions and node events live in time-sorted queues
//     (O(1) head), the next trace sample is a single stored instant, and
//     startup expiries live in the lazy-deletion min-heap below.
//
//   - Rate-driven completions — profiling apps, running apps, foreign
//     tasks — have deadlines of the form settledAt + remaining/rate. Progress
//     is integrated settle-on-rate-change: remaining is exact at the entity's
//     last settle point and is brought forward in ONE multiply when the next
//     rate change (spawn, grow, kill, foreign arrival/completion, node join/
//     fail, paging transition, startup expiry, profiling-share change)
//     actually arrives, instead of an explicit subtraction on every event.
//     Between settle points (settledAt, remaining, rate) are all constants,
//     so the absolute deadline is a stable, reproducible float: it can be
//     registered on the completion heap below and trusted verbatim until the
//     next rate change re-registers it. The pre-settle engine re-integrated
//     remaining every event, which moved the deadline by an ulp or two per
//     iteration and made heap keys drift from fresh scan values; that is why
//     completions used to be scanned, and why switching to settle-based
//     integration deliberately broke bit-for-bit agreement with the PR1-5
//     goldens (re-captured once, see README "Engine internals").
//
// The same change-proportionality applies to rate recomputation: rates are
// deterministic functions of node-local state, so a node whose executors,
// foreign tasks and startup gates did not change since the last pass would
// recompute to bit-identical values. Such nodes are skipped entirely; every
// mutation that can change a rate marks its node dirty (see markDirty), and
// startup expiries — the one rate change that arrives with the clock rather
// than with a mutation — are re-dirtied through the wake heap.

// nodeWake is one scheduled rate wake-up: node n must be re-dirtied at time
// at because an executor's startup gate expires then.
type nodeWake struct {
	at float64
	n  *Node
}

// wakeHeap is a hand-rolled min-heap of node wake-ups ordered by time, with
// lazy deletion: an entry is live only while its node's wakeAt still equals
// the entry's time. Re-dirtying a node rewrites n.wakeAt (and pushes a fresh
// entry if a future expiry remains), which invalidates any older entries in
// place; they are discarded when they surface at the top. The invariant is
// one-directional — whenever n.wakeAt is finite, an entry with exactly that
// time is somewhere in the heap — so a peek never misses a due wake-up.
type wakeHeap []nodeWake

// push adds a wake-up entry.
func (h *wakeHeap) push(at float64, n *Node) {
	*h = append(*h, nodeWake{at: at, n: n})
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].at <= (*h)[i].at {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// pop removes and returns the earliest entry; callers must check ok.
func (h *wakeHeap) pop() (nodeWake, bool) {
	if len(*h) == 0 {
		return nodeWake{}, false
	}
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	(*h)[last] = nodeWake{}
	*h = (*h)[:last]
	h.siftDown(0)
	return top, true
}

// siftDown restores the heap order below index i.
func (h *wakeHeap) siftDown(i int) {
	n := len(*h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && (*h)[left].at < (*h)[smallest].at {
			smallest = left
		}
		if right < n && (*h)[right].at < (*h)[smallest].at {
			smallest = right
		}
		if smallest == i {
			return
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
}

// markDirty queues a node for the next rate recomputation pass. Every
// mutation that can change an executor or foreign rate on the node must call
// it: executor membership changes (Spawn, app completion, migration and
// removeExecutor, which covers OOM kills, node-failure kills, preemption and
// drain handoff), reservation and allocation changes (Grow), foreign-task
// arrival and completion, node lifecycle events, and startup-expiry
// wake-ups. Idempotent per pass. Every such mutation can also move the node
// in or out of the placement index, so the node is marked stale there too
// (see nodeindex.go).
func (c *Cluster) markDirty(n *Node) {
	w, bit := c.nodeBit(n)
	c.dirty[w] |= bit
	c.stale[w] |= bit
}

// wakeExpiredNodes pops every due wake-up off the heap and re-dirties its
// node, discarding entries invalidated by a later recompute. The comparison
// is strict-past (at <= now), mirroring the startupUntil > now gate in the
// rate formula: the node recomputes on exactly the event where the gate
// flips.
func (c *Cluster) wakeExpiredNodes() {
	for len(c.wakes) > 0 {
		top := c.wakes[0]
		if top.n.wakeAt != top.at {
			// Stale: the node's wake time was rewritten since this entry was
			// pushed.
			c.wakes.pop()
			continue
		}
		if top.at > c.now {
			return
		}
		c.wakes.pop()
		top.n.wakeAt = math.Inf(1)
		c.markDirty(top.n)
	}
}

// completionEntry is one scheduled completion: the app (or foreign task, when
// app is nil) is expected to finish at absolute time at. seq is the push
// counter, breaking ties between equal deadlines so pops stay FIFO in
// registration order and heap compaction cannot reorder same-time events.
type completionEntry struct {
	at  float64
	seq uint64
	app *App
	f   *ForeignTask
}

// completionHeap is a lazy-deletion min-heap of completion deadlines ordered
// by (at, seq), with the same one-directional invariant as the wake heap: an
// entry is live only while its entity's stored deadline still equals the
// entry's time (and the entity is not already done), and whenever an entity
// holds a finite deadline an entry with exactly that time is somewhere in the
// heap. Re-registering a deadline just pushes a fresh entry; stale ones are
// discarded when they surface at the top, or swept out by compact once they
// dominate the slice.
type completionHeap []completionEntry

// before is the heap order: earlier deadline first, push order among equals.
func (h completionHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push adds a completion entry.
func (h *completionHeap) push(e completionEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.before(parent, i) {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// pop removes and returns the earliest entry; callers must check ok.
func (h *completionHeap) pop() (completionEntry, bool) {
	if len(*h) == 0 {
		return completionEntry{}, false
	}
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	(*h)[last] = completionEntry{}
	*h = (*h)[:last]
	h.siftDown(0)
	return top, true
}

// siftDown restores the heap order below index i.
func (h *completionHeap) siftDown(i int) {
	n := len(*h)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.before(left, smallest) {
			smallest = left
		}
		if right < n && h.before(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
}

// stale reports whether the entry no longer speaks for its entity: the
// stored deadline moved (a later settle re-registered it) or the entity
// already completed.
func (e completionEntry) stale() bool {
	if e.app != nil {
		return e.app.deadline != e.at || e.app.State == StateDone
	}
	return e.f.deadline != e.at || e.f.done
}

// compact drops every stale entry and re-heapifies in place. Pop order is
// fully determined by (at, seq), so rebuilding cannot reorder events.
func (h *completionHeap) compact() {
	w := 0
	for _, e := range *h {
		if !e.stale() {
			(*h)[w] = e
			w++
		}
	}
	clear((*h)[w:])
	*h = (*h)[:w]
	for i := w/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// settleApp integrates the app's progress from its last settle point to the
// current instant. Every rate feeding the integral has been constant since
// settledAt — settle points are exactly the rate changes — so one multiply
// is the whole integral. Idempotent at a given instant, and must run BEFORE
// any of the app's rates are reassigned or its progress fields are read or
// mutated at the current time.
func (c *Cluster) settleApp(a *App) {
	if a.settledAt == c.now {
		return
	}
	dt := c.now - a.settledAt
	switch a.State {
	case StateProfiling:
		a.profileLeft -= a.Job.Bench.ScanRate * ProfilingRateFactor * c.lastShare * dt
	case StateRunning:
		if r := appRate(a); r > 0 {
			a.RemainingGB -= r * dt
			// Attribute the same integral per executor: processedGB is the
			// checkpoint volume a graceful migration must move, and every
			// rate in the sum has been constant since settledAt too.
			for _, e := range a.Executors {
				if e.rate > 0 {
					e.processedGB += e.rate * dt
				}
			}
		}
	}
	a.settledAt = c.now
}

// settleForeign is settleApp for a foreign co-runner.
func (c *Cluster) settleForeign(f *ForeignTask) {
	if f.settledAt == c.now || f.done {
		return
	}
	f.remaining -= f.rate * (c.now - f.settledAt)
	f.settledAt = c.now
}

// touchApp queues the app for a deadline refresh at the end of the current
// iteration (refreshDeadlines). Idempotent per iteration.
func (c *Cluster) touchApp(a *App) {
	if !a.touched {
		a.touched = true
		c.touchedApps = append(c.touchedApps, a)
	}
}

// touchForeign is touchApp for a foreign co-runner.
func (c *Cluster) touchForeign(f *ForeignTask) {
	if !f.touched {
		f.touched = true
		c.touchedForeign = append(c.touchedForeign, f)
	}
}

// setAppDeadline recomputes the app's absolute completion deadline from its
// settled state and registers it on the completion heap when it moved. The
// expressions mirror refNextEventDt exactly — the stored deadline must be the
// same float a fresh scan would compute.
func (c *Cluster) setAppDeadline(a *App, share float64) {
	const tiny = 1e-9
	at := math.Inf(1)
	switch a.State {
	case StateProfiling:
		rate := a.Job.Bench.ScanRate * ProfilingRateFactor * share
		if rate > 0 && a.profileLeft > 0 {
			at = a.settledAt + a.profileLeft/rate
		}
	case StateRunning:
		// During startup the wake heap owns the next event; the completion
		// deadline registers once the gate expires and rates come alive.
		if a.startupUntil <= c.now {
			if r := appRate(a); r > tiny {
				at = a.settledAt + a.RemainingGB/r
			}
		}
	}
	if at != a.deadline {
		a.deadline = at
		if !math.IsInf(at, 1) {
			c.completionSeq++
			c.completions.push(completionEntry{at: at, seq: c.completionSeq, app: a})
		}
	}
}

// setForeignDeadline is setAppDeadline for a foreign co-runner.
func (c *Cluster) setForeignDeadline(f *ForeignTask) {
	const tiny = 1e-9
	at := math.Inf(1)
	if !f.done && f.rate > tiny {
		at = f.settledAt + f.remaining/f.rate
	}
	if at != f.deadline {
		f.deadline = at
		if !math.IsInf(at, 1) {
			c.completionSeq++
			c.completions.push(completionEntry{at: at, seq: c.completionSeq, f: f})
		}
	}
}

// refreshDeadlines runs once per event-loop iteration, after rates are fresh
// and the profiling share is known: it settles the profiling set when the
// share moved (the share is a rate too — it was constant over the elapsed
// interval and changes only when the profiling set changes), then recomputes
// the deadline of every entity touched this iteration. When stale entries
// dominate the heap it is compacted, keeping memory proportional to live
// deadlines rather than total pushes.
func (c *Cluster) refreshDeadlines(share float64) {
	if share != c.lastShare {
		for _, a := range c.profiling {
			c.settleApp(a)
			c.touchApp(a)
		}
		c.lastShare = share
	}
	for _, a := range c.touchedApps {
		a.touched = false
		c.setAppDeadline(a, share)
	}
	c.touchedApps = c.touchedApps[:0]
	for _, f := range c.touchedForeign {
		f.touched = false
		c.setForeignDeadline(f)
	}
	c.touchedForeign = c.touchedForeign[:0]
	if live := len(c.active) + len(c.activeForeign); len(c.completions) > 64 && len(c.completions) > 4*live {
		c.completions.compact()
	}
}

// resetIndex rebuilds the event index for a fresh run: empty active sets,
// zeroed done-counters (pre-registered foreign tasks may already be done
// from an earlier run on the same cluster), every node dirty (no rates have
// been computed for this run), and no pending wake-ups or deadlines.
func (c *Cluster) resetIndex() {
	c.active = c.active[:0]
	c.profiling = c.profiling[:0]
	c.doneApps = 0
	c.activeForeign = c.activeForeign[:0]
	c.doneForeign = 0
	c.completions = c.completions[:0]
	c.completionSeq = 0
	c.touchedApps = c.touchedApps[:0]
	c.touchedForeign = c.touchedForeign[:0]
	c.lastShare = 1
	for _, f := range c.foreign {
		if f.done {
			c.doneForeign++
		} else {
			f.settledAt = c.now
			f.deadline = math.Inf(1)
			f.touched = false
			c.activeForeign = append(c.activeForeign, f)
		}
	}
	c.wakes = c.wakes[:0]
	c.draining = c.draining[:0]
	for _, n := range c.nodes {
		n.wakeAt = math.Inf(1)
		if n.state == NodeDraining {
			c.draining = append(c.draining, n)
		}
		c.markDirty(n)
	}
}

// ActiveApps returns the submitted applications that have not completed, in
// submission (FCFS) order. It is the scheduler-facing view of the engine's
// active set: policies that walk applications every scheduling event should
// iterate it instead of Apps(), which includes every already-finished
// application of the stream. Callers must not mutate the returned slice.
func (c *Cluster) ActiveApps() []*App { return c.active }
