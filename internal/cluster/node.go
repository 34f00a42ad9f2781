package cluster

import (
	"fmt"
	"math"
)

// NodeState tracks a node through its lifecycle.
type NodeState int

// Node lifecycle states.
const (
	// NodeActive: accepting placements and processing normally.
	NodeActive NodeState = iota
	// NodeDraining: no new placements; resident executors run to completion.
	NodeDraining
	// NodeFailed: the node is gone; its executors were killed when it
	// failed.
	NodeFailed
	// NodeRemoved: a drained node whose last executor and foreign task
	// finished was decommissioned; it has left the fleet (no placements, no
	// trace samples). StateTime records the decommission instant.
	NodeRemoved
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeActive:
		return "active"
	case NodeDraining:
		return "draining"
	case NodeFailed:
		return "failed"
	case NodeRemoved:
		return "removed"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Node is one computing node.
type Node struct {
	ID int

	// Spec is the node's hardware description; all capacity and speed math
	// reads it, so nodes in one cluster may differ.
	Spec NodeSpec

	// Executors placed on this node, in spawn order.
	Executors []*Executor
	// Foreign tasks (e.g. PARSEC co-runners) pinned to this node.
	Foreign []*ForeignTask

	// JoinTime is when the node entered the cluster (0 for the initial
	// fleet); StateTime is when it last changed lifecycle state.
	JoinTime  float64
	StateTime float64

	state  NodeState
	cpuCap float64
	// allocGB is Spec.AllocatableGB, fixed at construction.
	allocGB float64

	// reservedGB, actualGB and cpuDemand are the node's totals over its
	// executors and foreign tasks. Every touch point that changes one
	// (executor membership, an executor's reservation or residency, a
	// foreign arrival or completion) calls recount, so reads are O(1).
	reservedGB float64
	actualGB   float64
	cpuDemand  float64
	// shrunk counts the node's executors that hold fewer items than their
	// fair share (ItemsGB < FairShareGB), the only ones a scheduler can grow;
	// the growable node set reads it. Spawn, Grow, removeExecutor, migration
	// and app completion keep it through countShrunk; writing ItemsGB,
	// FairShareGB or Executors directly leaves it stale.
	shrunk int

	// wakeAt is the earliest future startup expiry among this node's
	// executors (+Inf when none): the instant an executor's rate flips from
	// zero to positive with no membership change, so the node must be
	// re-dirtied even though nothing touched it. Maintained together with
	// the cluster's wake heap; see eventindex.go for the invariant.
	wakeAt float64
}

// newNode builds a node with its CPU capacity normalised against the
// reference node's cores and its allocatable memory computed once.
func newNode(id int, spec NodeSpec, joinTime float64) *Node {
	return &Node{
		ID: id, Spec: spec,
		JoinTime: joinTime, StateTime: joinTime,
		cpuCap:  float64(spec.Cores) / float64(ReferenceNode().Cores),
		allocGB: spec.AllocatableGB(),
		wakeAt:  math.Inf(1),
	}
}

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return n.state }

// Available reports whether the node accepts new placements.
func (n *Node) Available() bool { return n.state == NodeActive }

// UsableGB is this node's memory available to executors.
func (n *Node) UsableGB() float64 { return n.Spec.UsableGB() }

// AllocatableGB is the memory this node advertises for reservations (see
// newNode).
func (n *Node) AllocatableGB() float64 { return n.allocGB }

// CPUCapacity is the node's CPU capacity in baseline-node units: aggregate
// demand beyond it is time-shared.
func (n *Node) CPUCapacity() float64 { return n.cpuCap }

// recount recomputes the node's stored totals: each sums the executors and
// then the foreign tasks, in list order, so every total is bit-identical to
// summing on demand. A finished co-runner leaves all three totals, so the
// node can un-page once its foreign guest is gone.
func (n *Node) recount() {
	var reserved, actual, cpu float64
	for _, e := range n.Executors {
		reserved += e.ReservedGB
		actual += e.ActualGB
		cpu += e.Demand
	}
	for _, f := range n.Foreign {
		if f.done {
			continue
		}
		cpu += f.CPULoad
		reserved += f.MemoryGB
		actual += f.MemoryGB
	}
	n.reservedGB, n.actualGB, n.cpuDemand = reserved, actual, cpu
}

// ReservedGB is the total of admission-time memory reservations (plus
// the working sets of running foreign tasks).
func (n *Node) ReservedGB() float64 { return n.reservedGB }

// ActualGB is the total true memory use, running foreign tasks included.
func (n *Node) ActualGB() float64 { return n.actualGB }

// FreeGB is the unreserved allocatable memory left on the node.
func (n *Node) FreeGB() float64 {
	free := n.allocGB - n.reservedGB
	if free < 0 {
		return 0
	}
	return free
}

// CPUDemand is the total CPU demand of everything running on the node.
func (n *Node) CPUDemand() float64 { return n.cpuDemand }

// Utilization is the node's CPU utilization in [0,1], relative to its own
// capacity.
func (n *Node) Utilization() float64 {
	u := n.cpuDemand / n.cpuCap
	if u > 1 {
		return 1
	}
	return u
}

// AppCount returns the number of distinct applications with an executor on
// this node: an application holds at most one executor per node (Spawn
// rejects a second, and migration skips nodes that already host one).
func (n *Node) AppCount() int { return len(n.Executors) }

// ForeignTask is a non-Spark co-runner (the PARSEC programs of Figure 15):
// a CPU-bound job with a fixed working set, measured in seconds of isolated
// runtime.
type ForeignTask struct {
	Name     string
	Node     *Node
	CPULoad  float64
	MemoryGB float64
	// WorkSec is the isolated runtime; progress accrues at the contended
	// rate.
	WorkSec float64

	remaining float64
	rate      float64
	done      bool
	// settledAt / deadline / touched mirror the App fields of the same
	// names: remaining is exact at settledAt, deadline is the absolute
	// completion time registered on the completion heap (+Inf when none),
	// touched marks a pending deadline refresh.
	settledAt float64
	deadline  float64
	touched   bool
	// StartTime and DoneTime are simulation timestamps.
	StartTime float64
	DoneTime  float64
	// Lost marks a task killed by a node failure before completing its work.
	Lost bool
}

// Done reports completion.
func (f *ForeignTask) Done() bool { return f.done }
