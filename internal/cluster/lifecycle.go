package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"moespark/internal/workload"
)

// SpecsFrom converts a workload fleet description into per-node specs for
// NewHetero. (The conversion lives here because cluster already imports
// workload; the reverse import would cycle.)
func SpecsFrom(fleet []workload.NodeClass) []NodeSpec {
	specs := make([]NodeSpec, len(fleet))
	for i, c := range fleet {
		specs[i] = specFrom(c)
	}
	return specs
}

// StormEvents generates a seeded drain/fail storm over an initial fleet of
// nodeCount nodes: drains and fails hit distinct uniformly-drawn nodes at
// uniform times in [start, start+span), and each failed or drained node is
// replaced by a reference-node join one startup-latency later, modelling an
// autoscaler backfilling lost capacity. The same seed yields the identical
// storm.
func StormEvents(nodeCount, drains, fails int, start, span, rejoinDelay float64, rng *rand.Rand) ([]NodeEvent, error) {
	if nodeCount <= 0 {
		return nil, fmt.Errorf("cluster: storm needs a positive node count, got %d", nodeCount)
	}
	if drains < 0 || fails < 0 || drains+fails == 0 {
		return nil, fmt.Errorf("cluster: storm needs a non-negative mix of drains (%d) and fails (%d)", drains, fails)
	}
	if drains+fails >= nodeCount {
		return nil, fmt.Errorf("cluster: storm of %d events would exhaust the %d-node fleet", drains+fails, nodeCount)
	}
	// Written as !(x >= 0) so NaN fails too; an infinite value would put
	// events at +Inf.
	if !(start >= 0) || !(span > 0) || !(rejoinDelay >= 0) ||
		math.IsInf(start, 0) || math.IsInf(span, 0) || math.IsInf(rejoinDelay, 0) {
		return nil, fmt.Errorf("cluster: invalid storm window start=%v span=%v rejoin=%v", start, span, rejoinDelay)
	}
	perm := rng.Perm(nodeCount)
	events := make([]NodeEvent, 0, 2*(drains+fails))
	for i := 0; i < drains+fails; i++ {
		at := start + rng.Float64()*span
		kind := NodeDrain
		if i >= drains {
			kind = NodeFail
		}
		events = append(events, NodeEvent{At: at, Kind: kind, Node: perm[i]})
		events = append(events, NodeEvent{At: at + rejoinDelay, Kind: NodeJoin})
	}
	return events, nil
}

// RackStormEvents generates a seeded rack-correlated storm over an initial
// fleet: whole racks leave together, the failure mode production schedulers
// actually plan for (a ToR switch or PDU takes every machine behind it).
// The specs slice is the initial fleet in node-ID order (node i has spec
// specs[i], as NewHetero builds it); distinct rack labels are collected in
// first-appearance order and drainRacks+failRacks of them are drawn from a
// seeded permutation. Each chosen rack gets one uniform time in
// [start, start+span): a drained rack drains every node at that instant; a
// failed rack first drains every node (the warnSec advance notice a
// maintenance controller gives — the window graceful migration gets to
// evacuate) and then fails them warnSec later. warnSec = 0 means unannounced
// failure. Every lost node is backfilled by a join with the identical spec —
// same rack label — rejoinDelay after it left. The same seed yields the
// identical storm.
func RackStormEvents(specs []NodeSpec, drainRacks, failRacks int, start, span, warnSec, rejoinDelay float64, rng *rand.Rand) ([]NodeEvent, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: rack storm needs a non-empty fleet")
	}
	var racks []string
	seen := map[string]bool{}
	for i, s := range specs {
		if s.Rack == "" {
			return nil, fmt.Errorf("cluster: rack storm needs topology, node %d has no rack", i)
		}
		if !seen[s.Rack] {
			seen[s.Rack] = true
			racks = append(racks, s.Rack)
		}
	}
	if drainRacks < 0 || failRacks < 0 || drainRacks+failRacks == 0 {
		return nil, fmt.Errorf("cluster: rack storm needs a non-negative mix of drains (%d) and fails (%d)", drainRacks, failRacks)
	}
	if drainRacks+failRacks >= len(racks) {
		return nil, fmt.Errorf("cluster: storm over %d racks would exhaust the %d-rack fleet", drainRacks+failRacks, len(racks))
	}
	if !(start >= 0) || !(span > 0) || !(warnSec >= 0) || !(rejoinDelay >= 0) ||
		math.IsInf(start, 0) || math.IsInf(span, 0) || math.IsInf(warnSec, 0) || math.IsInf(rejoinDelay, 0) {
		return nil, fmt.Errorf("cluster: invalid storm window start=%v span=%v warn=%v rejoin=%v", start, span, warnSec, rejoinDelay)
	}
	perm := rng.Perm(len(racks))
	events := make([]NodeEvent, 0, 3*len(specs))
	for i := 0; i < drainRacks+failRacks; i++ {
		rack := racks[perm[i]]
		at := start + rng.Float64()*span
		failing := i >= drainRacks
		for id, s := range specs {
			if s.Rack != rack {
				continue
			}
			gone := at
			if failing {
				if warnSec > 0 {
					events = append(events, NodeEvent{At: at, Kind: NodeDrain, Node: id})
				}
				gone = at + warnSec
				events = append(events, NodeEvent{At: gone, Kind: NodeFail, Node: id})
			} else {
				events = append(events, NodeEvent{At: at, Kind: NodeDrain, Node: id})
			}
			events = append(events, NodeEvent{At: gone + rejoinDelay, Kind: NodeJoin, Spec: s})
		}
	}
	return events, nil
}

// NodeEventKind enumerates timed node lifecycle events.
type NodeEventKind int

// Node lifecycle event kinds.
const (
	// NodeJoin adds a new node (with NodeEvent.Spec, or the platform default
	// spec when zero) to the cluster.
	NodeJoin NodeEventKind = iota + 1
	// NodeDrain stops new placements on the target node; resident executors
	// run to completion.
	NodeDrain
	// NodeFail removes the target node immediately: resident executors are
	// killed and their partial work is charged back to their applications
	// (oomReprocessFrac), foreign tasks on the node are lost.
	NodeFail
)

// String implements fmt.Stringer.
func (k NodeEventKind) String() string {
	switch k {
	case NodeJoin:
		return "join"
	case NodeDrain:
		return "drain"
	case NodeFail:
		return "fail"
	default:
		return fmt.Sprintf("NodeEventKind(%d)", int(k))
	}
}

// NodeEvent is one timed node lifecycle event consumed by the engine: at time
// At the node set changes. Together with Submissions, NodeEvents make the
// open-system engine model churny fleets — scale-ups, rolling drains and
// hardware failures — rather than the paper's fixed 40 nodes.
type NodeEvent struct {
	// At is the event time in simulation seconds.
	At float64
	// Kind selects join, drain or fail.
	Kind NodeEventKind
	// Node is the target node ID for drain and fail; ignored for join.
	Node int
	// Spec is the joining node's hardware (join only); the zero value means
	// ReferenceNode.
	Spec NodeSpec
}

// ScheduleNodeEvents registers lifecycle events before a run. Events may be
// given in any order; ties keep their registration order. Target validity is
// checked when the event fires (a join may create the target of a later
// drain).
func (c *Cluster) ScheduleNodeEvents(events ...NodeEvent) error {
	for _, ev := range events {
		if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
			return fmt.Errorf("cluster: invalid node event time %v", ev.At)
		}
		switch ev.Kind {
		case NodeJoin:
			if ev.Spec != (NodeSpec{}) {
				if err := ev.Spec.Validate(); err != nil {
					return err
				}
			}
		case NodeDrain, NodeFail:
			if ev.Node < 0 {
				return fmt.Errorf("cluster: %s event targets negative node %d", ev.Kind, ev.Node)
			}
		default:
			return fmt.Errorf("cluster: unknown node event kind %v", ev.Kind)
		}
	}
	c.nodeEvents = append(c.nodeEvents, events...)
	sort.SliceStable(c.nodeEvents, func(i, j int) bool {
		return c.nodeEvents[i].At < c.nodeEvents[j].At
	})
	return nil
}

// applyNodeEvents fires every scheduled lifecycle event whose time has come.
// Nodes that entered the Draining state this call are migrated after the
// whole due batch has been applied (not per event): in a correlated storm
// several racks can leave at the same instant, and evacuating the first one
// before its peers' drain events have fired would migrate executors onto a
// node about to drain itself, paying the checkpoint cost twice. A batch that
// fired any event changed which nodes are available, so every in-flight
// app's free-fleet size is recomputed once after it.
func (c *Cluster) applyNodeEvents() error {
	const eps = 1e-9
	firstDraining := len(c.draining)
	fired := false
	for len(c.nodeEvents) > 0 && c.nodeEvents[0].At <= c.now+eps {
		fired = true
		ev := c.nodeEvents[0]
		c.nodeEvents = c.nodeEvents[1:]
		switch ev.Kind {
		case NodeJoin:
			spec := ev.Spec
			if spec == (NodeSpec{}) {
				spec = ReferenceNode()
			}
			n := newNode(c.nextNodeID, spec, c.now)
			c.nodes = append(c.nodes, n)
			c.indexSpread(n)
			c.nextNodeID++
			c.markDirty(n)
		case NodeDrain:
			n, err := c.nodeByID(ev.Node, ev.Kind)
			if err != nil {
				return err
			}
			if n == nil {
				continue // the node already drained out; nothing left to act on
			}
			if n.state != NodeDraining {
				c.draining = append(c.draining, n)
			}
			n.state = NodeDraining
			n.StateTime = c.now
			// The node leaves the open set; nothing else about it changed,
			// so no rate needs recomputing.
			c.markStale(n)
		case NodeFail:
			n, err := c.nodeByID(ev.Node, ev.Kind)
			if err != nil {
				return err
			}
			if n == nil {
				continue
			}
			c.failNode(n)
		}
	}
	if fired {
		for _, a := range c.active {
			_, a.freeFleet = c.fleetSizes(a.Job.InputGB)
		}
	}
	if c.cfg.MigrateOnDrain {
		// Index, not range: a same-instant drain of a migration target cannot
		// happen (all due drains fired above), but a defensive copy-free walk
		// keeps any future append during migration visible.
		for i := firstDraining; i < len(c.draining); i++ {
			if n := c.draining[i]; n.state == NodeDraining {
				c.migrateFrom(n)
			}
		}
	}
	return nil
}

// completeDrains decommissions every draining node whose last executor and
// foreign task have finished: the node leaves the fleet (NodeRemoved,
// StateTime stamped at the decommission instant) instead of idling in traces
// and bookkeeping forever. A drain of an already-empty node decommissions it
// immediately. Only nodes actually in the Draining state are visited: drain
// events enqueue their node on the draining list, and a node leaves it when
// it decommissions or a failure overtook the drain. Decommissions are
// per-node-independent state flips, so visiting the short list in drain
// order decides exactly what the historical full-fleet scan decided.
func (c *Cluster) completeDrains() {
	if len(c.draining) == 0 {
		return
	}
	w := 0
	for _, n := range c.draining {
		if n.state != NodeDraining {
			continue // failed mid-drain; failNode already settled it
		}
		busy := len(n.Executors) > 0
		for _, f := range n.Foreign {
			if busy {
				break
			}
			busy = !f.done
		}
		if busy {
			c.draining[w] = n
			w++
			continue
		}
		// No stale mark: the drain already took the node out of the open
		// set, and an empty node has nothing to grow.
		n.state = NodeRemoved
		n.StateTime = c.now
		c.unblockNode(n.ID)
	}
	clear(c.draining[w:])
	c.draining = c.draining[:w]
}

// unblockNode drops the node's ID from every active application's OOM
// blacklist when the node leaves the fleet for good (decommission or
// failure). Node IDs are never reused — joins allocate from a monotone
// counter — so a stale entry could never block a future node, but without
// this sweep the per-app maps grow with every decommissioned ID for the
// app's whole lifetime (the blockedNodes leak). Behaviour is unchanged:
// Removed/Failed nodes never pass the Available check that guards every
// BlockedOn consultation.
func (c *Cluster) unblockNode(id int) {
	for _, a := range c.active {
		delete(a.blockedNodes, id)
	}
}

// nodeByID resolves a lifecycle event target. Failed nodes are invalid
// targets (the event script is wrong); a decommissioned node resolves to
// (nil, nil) — whether a drain completes before or after a later event
// against the same node fires depends on workload timing, so the event is a
// no-op rather than an error.
func (c *Cluster) nodeByID(id int, kind NodeEventKind) (*Node, error) {
	for _, n := range c.nodes {
		if n.ID == id {
			if n.state == NodeFailed {
				return nil, fmt.Errorf("cluster: %s event targets node %d, which already failed", kind, id)
			}
			if n.state == NodeRemoved {
				return nil, nil
			}
			return n, nil
		}
	}
	return nil, fmt.Errorf("cluster: %s event targets unknown node %d", kind, id)
}

// failNode kills everything resident on the node and removes it from
// placement. Killed executors charge reprocessing work back to their
// applications, mirroring the OOM-kill path: a failure loses the same
// partial state an OOM kill does.
func (c *Cluster) failNode(n *Node) {
	for len(n.Executors) > 0 {
		victim := n.Executors[len(n.Executors)-1]
		c.totalFailKills++
		c.reclaimExecutor(victim)
	}
	for _, f := range n.Foreign {
		if !f.done {
			// The co-runner dies with its node; it never completes its work.
			f.done = true
			f.DoneTime = c.now
			f.Lost = true
			c.doneForeign++
		}
	}
	n.recount()
	n.state = NodeFailed
	n.StateTime = c.now
	c.unblockNode(n.ID)
	c.markDirty(n)
}

// nextNodeEventDt returns the time to the next scheduled lifecycle event.
func (c *Cluster) nextNodeEventDt() (float64, bool) {
	if len(c.nodeEvents) == 0 {
		return 0, false
	}
	return c.nodeEvents[0].At - c.now, true
}
