package cluster

import (
	"fmt"
	"iter"
	"math"
	"slices"
)

// This file holds full-scan reference implementations of event selection, rate
// recomputation, the profiling share, the waiting set, fleet sizing, the
// completion check, the stored completion deadlines, the stored node totals,
// the node index's open set and the superset of the growable list. They are
// not called by the engine — the indexed paths in engine.go and nodeindex.go
// replaced them — but they are the ground truth the index must reproduce
// exactly, or stay within for the growable list: the differential property
// test (property_test.go) installs Cluster.checkEvent and replays these
// scans against the indexed engine's state on every event of randomized
// workloads, asserting float-for-float agreement. Any bookkeeping bug in the
// active sets, dirty, open or freed marking, wake heap or deadline heap
// shows up as a divergence on the exact event where it happens, not as a
// mysteriously shifted makespan.
//
// Since the settle-on-rate-change refactor the scans read the SETTLED state:
// a completion candidate is settledAt + remaining/rate (an absolute
// deadline), computed with exactly the expressions setAppDeadline /
// setForeignDeadline use, so the heap top must still match a fresh full scan
// float-for-float. The per-event re-integration semantics of the pre-settle
// engine live on in the property test's shadow integrator, which bounds the
// trajectory difference by a documented epsilon instead of bit equality.

// refProfilingShare is the full-apps-scan profiling share.
func (c *Cluster) refProfilingShare() float64 {
	var sum float64
	for _, a := range c.apps {
		if a.State == StateProfiling {
			sum += a.Job.Bench.ScanRate
		}
	}
	if sum <= coordinatorRateGBps || sum == 0 {
		return 1
	}
	return coordinatorRateGBps / sum
}

// refNextEventDt is the full-scan event selection: every app, every foreign
// task, the pending head, the node-event head and the next trace sample.
// Completion candidates are absolute deadlines recomputed from the settled
// state with the exact expressions setAppDeadline/setForeignDeadline use, so
// the engine's heap-top pick must agree float-for-float (dt = deadline - now
// is monotone in the deadline, so min-of-dt equals dt-of-min). It reads
// trace.nextSampleTime through a side-effect-free copy of the clamp, since
// the engine's own call already advanced the stored instant.
func (c *Cluster) refNextEventDt(share float64) (float64, bool) {
	const tiny = 1e-9
	best := math.Inf(1)
	for _, a := range c.apps {
		switch a.State {
		case StateProfiling:
			rate := a.Job.Bench.ScanRate * ProfilingRateFactor * share
			if rate > 0 && a.profileLeft > 0 {
				if dt := a.settledAt + a.profileLeft/rate - c.now; dt < best {
					best = dt
				}
			}
		case StateRunning:
			// Per-executor candidates mirror the wake heap exactly: each
			// executor whose effective gate (app startup or its own migration
			// gate, whichever is later) lies in the future contributes that
			// gate — the engine stores the per-node minimum as Node.wakeAt,
			// and a min over all gates equals a min over per-node minima.
			for _, e := range a.Executors {
				gate := a.startupUntil
				if e.gateUntil > gate {
					gate = e.gateUntil
				}
				if gate > c.now {
					if dt := gate - c.now; dt < best {
						best = dt
					}
				}
			}
			if a.startupUntil <= c.now {
				if r := appRate(a); r > tiny {
					if dt := a.settledAt + a.RemainingGB/r - c.now; dt < best {
						best = dt
					}
				}
			}
		}
	}
	for _, f := range c.foreign {
		if !f.done && f.rate > tiny {
			if dt := f.settledAt + f.remaining/f.rate - c.now; dt < best {
				best = dt
			}
		}
	}
	if len(c.pending) > 0 {
		if dt := c.pending[0].At - c.now; dt < best {
			best = dt
		}
	}
	if dt, ok := c.nextNodeEventDt(); ok && dt < best {
		best = dt
	}
	if c.trace != nil {
		next := c.trace.nextSample
		if next < c.now {
			next = c.now
		}
		if dt := next - c.now; dt < best {
			best = dt
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	if best < tiny {
		best = tiny
	}
	return best, true
}

// refAllDone is the full-scan completion check.
func (c *Cluster) refAllDone() bool {
	if len(c.pending) > 0 {
		return false
	}
	for _, a := range c.apps {
		if a.State != StateDone {
			return false
		}
	}
	for _, f := range c.foreign {
		if !f.done {
			return false
		}
	}
	return true
}

// refWaitingApps is the full-apps-scan waiting set, in weighted FCFS order.
func (c *Cluster) refWaitingApps() []*App {
	var buf []*App
	for _, a := range c.apps {
		if (a.State == StateReady || a.State == StateRunning) &&
			a.RemainingGB > 0 && len(a.Executors) < a.MaxExecutors {
			buf = append(buf, a)
		}
	}
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j].Class.Weight > buf[j-1].Class.Weight; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// refFleetSizes is the sort-based fleet sizing: the spread shares of the
// nodes a size counts, insertion-sorted descending over the whole fleet,
// then summed largest first until the input is covered. fleet counts the
// available nodes with more than MinChunkGB free, free every available node.
func (c *Cluster) refFleetSizes(inputGB float64) (fleet, free int) {
	refAlloc := ReferenceNode().AllocatableGB()
	size := func(counts func(n *Node) bool) int {
		var shares []float64
		for _, n := range c.nodes {
			if !counts(n) {
				continue
			}
			share := c.cfg.ExecutorSpreadGB * n.AllocatableGB() / refAlloc
			shares = append(shares, share)
			for i := len(shares) - 1; i > 0 && shares[i] > shares[i-1]; i-- {
				shares[i], shares[i-1] = shares[i-1], shares[i]
			}
		}
		if len(shares) == 0 {
			return c.cfg.NodesFor(inputGB)
		}
		const eps = 1e-9
		k, covered := 0, 0.0
		for k < len(shares) && covered < inputGB-eps {
			covered += shares[k]
			k++
		}
		if k > c.cfg.MaxExecutorNodes {
			k = c.cfg.MaxExecutorNodes
		}
		if k < 1 {
			k = 1
		}
		return k
	}
	fleet = size(func(n *Node) bool { return n.Available() && n.FreeGB() > MinChunkGB })
	free = size((*Node).Available)
	return fleet, free
}

// refCheckRates recomputes every rate on every node with the original
// formula — into locals, never into engine state — and compares against the
// rates the dirty-node pass left behind. It returns a description of the
// first divergence, or "" when every stored rate is bit-identical to a full
// recompute. It must run after the engine's recomputeRates and before
// advance (the window where stored rates are supposed to be fresh); it
// deliberately omits enforceOOM, which the engine's own pass already applied
// to every node whose memory changed.
//
//moevet:allow refpair pure cross-checker comparing stored rates to a fresh scan; no live twin by design
func (c *Cluster) refCheckRates() string {
	for _, n := range c.nodes {
		_, actual, sumD := c.refNodeSums(n)
		usable := n.Spec.UsableGB()
		speed := n.Spec.SpeedFactor
		overflow := actual - pressureWatermark*usable
		pageFactor := 1.0
		if overflow > 0 {
			pageFactor = 1 / (1 + pagePenalty*overflow/usable)
		}
		cpuFactor := 1.0
		if cap := n.cpuCap; sumD > cap {
			cpuFactor = cap / sumD
		}
		for _, e := range n.Executors {
			gate := e.App.startupUntil
			if e.gateUntil > gate {
				gate = e.gateUntil
			}
			var want float64
			if gate > c.now {
				want = 0
			} else {
				interference := 1 / (1 + interferenceAlpha*(sumD-e.Demand))
				cacheEff := 1.0
				if e.FairShareGB > MinChunkGB && e.ItemsGB < e.FairShareGB {
					cacheEff = math.Pow(e.ItemsGB/e.FairShareGB, cacheGamma)
					if cacheEff < cacheFloor {
						cacheEff = cacheFloor
					}
				}
				heapFactor := 1.0
				if e.ReservedGB > 0 && e.NeedGB > e.ReservedGB {
					shortfall := (e.NeedGB - e.ReservedGB) / e.ReservedGB
					heapFactor = 1 / (1 + heapPenalty*shortfall*shortfall)
					if heapFactor < heapFloor {
						heapFactor = heapFloor
					}
				}
				want = e.App.Job.Bench.ScanRate * speed * cpuFactor * interference * pageFactor * cacheEff * heapFactor
			}
			if e.rate != want {
				return fmt.Sprintf("node %d app %d executor rate %v, full recompute %v", n.ID, e.App.ID, e.rate, want)
			}
		}
		for _, f := range n.Foreign {
			if f.done {
				continue
			}
			interference := 1 / (1 + interferenceAlpha*(sumD-f.CPULoad))
			want := speed * cpuFactor * interference * pageFactor
			if f.rate != want {
				return fmt.Sprintf("node %d foreign %q rate %v, full recompute %v", n.ID, f.Name, f.rate, want)
			}
		}
	}
	return ""
}

// refCheckDeadlines recomputes every stored completion deadline from the
// settled state — the same expressions setAppDeadline/setForeignDeadline
// evaluate — and returns the first divergence, or "" when every stored
// deadline is bit-identical to a full recompute. It also pins the settle
// bookkeeping itself: no settle point may lie in the future. Like
// refCheckRates it must run in the window after refreshDeadlines and before
// advance.
//
//moevet:allow refpair pure cross-checker comparing stored deadlines to a fresh scan; no live twin by design
func (c *Cluster) refCheckDeadlines(share float64) string {
	const tiny = 1e-9
	for _, a := range c.apps {
		if a.settledAt > c.now {
			return fmt.Sprintf("app %d settled at %v, ahead of the clock %v", a.ID, a.settledAt, c.now)
		}
		want := math.Inf(1)
		switch a.State {
		case StateProfiling:
			rate := a.Job.Bench.ScanRate * ProfilingRateFactor * share
			if rate > 0 && a.profileLeft > 0 {
				want = a.settledAt + a.profileLeft/rate
			}
		case StateRunning:
			if a.startupUntil <= c.now {
				if r := appRate(a); r > tiny {
					want = a.settledAt + a.RemainingGB/r
				}
			}
		}
		if a.State != StateDone && a.deadline != want {
			return fmt.Sprintf("app %d (%v) deadline %v, full recompute %v", a.ID, a.State, a.deadline, want)
		}
	}
	for _, f := range c.foreign {
		if f.done {
			continue
		}
		if f.settledAt > c.now {
			return fmt.Sprintf("foreign %q settled at %v, ahead of the clock %v", f.Name, f.settledAt, c.now)
		}
		want := math.Inf(1)
		if f.rate > tiny {
			want = f.settledAt + f.remaining/f.rate
		}
		if f.deadline != want {
			return fmt.Sprintf("foreign %q deadline %v, full recompute %v", f.Name, f.deadline, want)
		}
	}
	return ""
}

// refOpenNodes is the full-scan open set: every available node with more
// than MinChunkGB unreserved, in node order.
func (c *Cluster) refOpenNodes() iter.Seq[*Node] {
	var open []*Node
	for _, n := range c.nodes {
		if n.Available() && n.FreeGB() > MinChunkGB {
			open = append(open, n)
		}
	}
	return slices.Values(open)
}

// refGrowable is the full-scan superset of the growable list: a walk of every
// running app in submission order and its executors in App.Executors order,
// keeping each widenable executor whose node has more than GrowMinFreeGB
// unreserved. TakeGrowable lists the subsequence of it whose grow decision
// can have changed since its previous call.
//
//moevet:refpair TakeGrowable
func (c *Cluster) refGrowable(buf []*Executor) []*Executor {
	for _, a := range c.apps {
		if a.State != StateRunning {
			continue
		}
		for _, e := range a.Executors {
			if e.ItemsGB*GrowChurn < e.FairShareGB && e.Node.FreeGB() > GrowMinFreeGB {
				buf = append(buf, e)
			}
		}
	}
	return buf
}

// refNodeSums sums a node's reserved memory, actual memory and CPU demand on
// demand, one walk per total, executors first and then foreign tasks. It is
// the reference for nodeChanged, which stores the same sums on the node
// instead of returning them.
//
//moevet:allow refpair the live twin is (*Cluster).nodeChanged, which stores these sums rather than returning them; refCheckNodeSums compares the two
func (c *Cluster) refNodeSums(n *Node) (reservedGB, actualGB, cpuDemand float64) {
	for _, e := range n.Executors {
		reservedGB += e.ReservedGB
	}
	for _, f := range n.Foreign {
		if !f.done {
			reservedGB += f.MemoryGB
		}
	}
	for _, e := range n.Executors {
		actualGB += e.ActualGB
	}
	for _, f := range n.Foreign {
		if !f.done {
			actualGB += f.MemoryGB
		}
	}
	for _, e := range n.Executors {
		cpuDemand += e.Demand
	}
	for _, f := range n.Foreign {
		if !f.done {
			cpuDemand += f.CPULoad
		}
	}
	return reservedGB, actualGB, cpuDemand
}

// refAppCount counts the distinct applications with an executor on the node.
func (n *Node) refAppCount() int {
	seen := map[int]bool{}
	for _, e := range n.Executors {
		seen[e.App.ID] = true
	}
	return len(seen)
}

// refCheckNodeSums recounts every node's totals with refNodeSums and
// refAppCount and compares them with what the node stores. It returns a
// description of the first divergence, or "" when every stored total is
// bit-identical to the recount. Every touch point records its change
// through nodeChanged at once, so the check holds at any instant.
//
//moevet:allow refpair pure cross-checker comparing stored node totals to a fresh recount; no live twin by design
func (c *Cluster) refCheckNodeSums() string {
	for _, n := range c.nodes {
		reserved, actual, cpu := c.refNodeSums(n)
		if n.ReservedGB() != reserved || n.ActualGB() != actual || n.CPUDemand() != cpu {
			return fmt.Sprintf("node %d stored reserved/actual/cpu %v/%v/%v, recount %v/%v/%v",
				n.ID, n.ReservedGB(), n.ActualGB(), n.CPUDemand(), reserved, actual, cpu)
		}
		if apps := n.refAppCount(); apps != len(n.Executors) {
			return fmt.Sprintf("node %d hosts %d executors of %d distinct apps", n.ID, len(n.Executors), apps)
		}
	}
	return ""
}
