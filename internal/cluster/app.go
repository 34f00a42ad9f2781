package cluster

import (
	"fmt"
	"math"

	"moespark/internal/workload"
)

// permanentBlock is the blacklist expiry of an entry that never lapses (the
// legacy no-retry policy, or a spent retry budget).
var permanentBlock = math.Inf(1)

// AppState tracks an application through its lifecycle.
type AppState int

// Application lifecycle states.
const (
	// StateQueued: submitted, waiting for a profiling slot (or directly
	// ready if the policy needs no profiling).
	StateQueued AppState = iota + 1
	// StateProfiling: running feature-extraction/calibration passes on the
	// coordinating node.
	StateProfiling
	// StateReady: profiled and waiting for executors.
	StateReady
	// StateRunning: at least one executor is processing data.
	StateRunning
	// StateDone: all input processed.
	StateDone
)

// String implements fmt.Stringer.
func (s AppState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateProfiling:
		return "profiling"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("AppState(%d)", int(s))
	}
}

// App is one submitted application.
type App struct {
	// ID is the submission index (FCFS order).
	ID int
	// Job is the benchmark + input size.
	Job workload.Job
	// Class is the submitting tenant's priority class; the zero class is the
	// untagged single-tenant default.
	Class workload.Class

	// SubmitTime, ReadyTime, StartTime, DoneTime are simulation timestamps
	// (seconds); Ready/Start/Done are -1 until reached.
	SubmitTime float64
	ReadyTime  float64
	StartTime  float64
	DoneTime   float64

	// RemainingGB is unprocessed input.
	RemainingGB float64
	// ProfileGB is the profiling volume the policy requested; it is
	// processed on the coordinator.
	ProfileGB float64
	// ContributeGB is the part of the profiling volume whose output counts
	// towards completion.
	ContributeGB float64
	// profileLeft tracks profiling progress.
	profileLeft float64

	// MaxExecutors is the fleet-size cap from dynamic allocation.
	MaxExecutors int
	// freeFleet is the fleet the app would get if every available node were
	// free (see Cluster.fleetSizes), the ceiling refreshFleetCaps raises
	// MaxExecutors to. It is sized at admission and recomputed for every
	// in-flight app whenever a node joins, drains or fails, the only events
	// that change which nodes are available.
	freeFleet int
	// Executors currently running for this app.
	Executors []*Executor
	// OOMKills counts executors lost to out-of-memory on an oversubscribed
	// node.
	OOMKills int
	// PreemptKills counts executors this app lost to higher-priority
	// preemption; the lost work is charged back exactly like an OOM kill.
	PreemptKills int
	// Migrations counts executors this app had checkpointed and moved off a
	// draining node (Config.MigrateOnDrain).
	Migrations int
	// OOMRetries counts OOM blacklist entries granted a cool-off expiry
	// instead of permanence under Config.OOMRetryBudget.
	OOMRetries int
	// LostWorkGB is the total reprocessing work charged back to this app by
	// OOM kills, node failures and preemptions (the actual RemainingGB
	// increase after clamping, not the nominal fraction).
	LostWorkGB float64

	// State is the current lifecycle state.
	State AppState

	// PredictedGB is the policy's predicted executor footprint for this
	// app's fair-share allocation, recorded at Prepare time by predicting
	// estimators (0 = no prediction installed). The engine never reads it;
	// it is a reporting field (moeschedsim's JSON/verbose output). A
	// learning predictor is told each executor's footprint against the
	// prediction for the allocation actually granted instead.
	PredictedGB float64

	// blockedNodes maps node IDs where an executor of this app was
	// OOM-killed to the absolute time the blacklist entry expires: +Inf
	// under the legacy permanent policy (the paper re-runs OOM victims
	// elsewhere, in isolation), a finite cool-off under
	// Config.OOMRetryBudget. Entries are dropped when their node leaves the
	// fleet (Cluster.unblockNode).
	blockedNodes map[int]float64
	// startupUntil is the time processing can begin (launch latency).
	startupUntil float64

	// settledAt is the last instant RemainingGB / profileLeft were settled
	// (integrated to). Rates are piecewise-constant between settle points, so
	// progress fields are exact at settledAt and integrated forward in one
	// multiply when the next settle point arrives (see eventindex.go).
	settledAt float64
	// deadline is the absolute completion time registered on the completion
	// heap (+Inf when the app has none); a heap entry is live only while its
	// time still equals this field.
	deadline float64
	// touched marks the app as pending a deadline refresh this iteration
	// (it is on Cluster.touchedApps).
	touched bool

	// Estimate is scratch space for the scheduling policy (e.g. the
	// calibrated memory function); the engine never touches it.
	Estimate any
}

// Turnaround returns DoneTime - SubmitTime, the quantity ANTT averages.
func (a *App) Turnaround() float64 {
	if a.DoneTime < 0 {
		return -1
	}
	return a.DoneTime - a.SubmitTime
}

// SojournSec is the open-system name for the turnaround: total time the
// application spent in the system from submission to completion.
func (a *App) SojournSec() float64 { return a.Turnaround() }

// WaitSec returns the time between submission and the start of useful
// execution: the first executor spawn, or completion when the app finished
// entirely during profiling. It is -1 until execution has started.
func (a *App) WaitSec() float64 {
	var w float64
	switch {
	case a.StartTime >= 0:
		w = a.StartTime - a.SubmitTime
	case a.DoneTime >= 0:
		w = a.DoneTime - a.SubmitTime
	default:
		return -1
	}
	if w < 0 {
		// Arrival admission tolerates ~1e-9s of clock slack (an app can be
		// admitted epsilon-early); never report a negative wait for it.
		return 0
	}
	return w
}

// BlockedOn reports whether the node is blacklisted for this app at the
// given instant (typically Cluster.Now()). Permanent entries carry a +Inf
// expiry, so the legacy no-retry policy blocks at every instant.
func (a *App) BlockedOn(n *Node, now float64) bool { return a.blockedNodes[n.ID] > now }

// blockNode blacklists a node for this app until the given absolute time
// (+Inf for permanently).
func (a *App) blockNode(n *Node, until float64) {
	if a.blockedNodes == nil {
		a.blockedNodes = map[int]float64{}
	}
	a.blockedNodes[n.ID] = until
}

// CanUse reports whether a new executor of the app may go on n at the given
// instant: n is available, holds no executor of the app yet, and is not
// blacklisted for it while it hosts executors (after an OOM kill the app
// avoids a shared node, but an empty one is fine again: the paper re-runs
// OOM victims in isolation). Placement, migration and preemption all pick
// their targets by it; Spawn checks the same rule one condition at a time,
// so each failure keeps its own error.
func (a *App) CanUse(n *Node, now float64) bool {
	return n.Available() && !a.ExecutorOn(n) && !(a.BlockedOn(n, now) && len(n.Executors) > 0)
}

// ExecutorOn reports whether the app already has an executor on the node.
// An app holds at most one executor per node, which both lists record, so
// the shorter list answers.
func (a *App) ExecutorOn(n *Node) bool {
	if len(n.Executors) < len(a.Executors) {
		for _, e := range n.Executors {
			if e.App == a {
				return true
			}
		}
		return false
	}
	for _, e := range a.Executors {
		if e.Node == n {
			return true
		}
	}
	return false
}

// widenable reports whether the growth pass can still widen e: its items
// times GrowChurn are below its fair share, which is fixed at spawn.
func (e *Executor) widenable() bool { return e.ItemsGB*GrowChurn < e.FairShareGB }

// Executor is one executor process placed on a node.
type Executor struct {
	App  *App
	Node *Node
	// ReservedGB is the admission-time memory reservation (heap size the
	// scheduler granted).
	ReservedGB float64
	// ItemsGB is the data allocation the scheduler granted (the "number of
	// RDD data items" in paper terms).
	ItemsGB float64
	// NeedGB is the true memory demand for the allocation, from the
	// workload ground truth; it may exceed ReservedGB when the policy
	// under-predicted.
	NeedGB float64
	// ActualGB is the resident memory: the JVM caps the heap at the
	// reservation, so residency is min(NeedGB, ReservedGB*(1+offheap));
	// the un-resident remainder spills, which the heap penalty models.
	ActualGB float64
	// Demand is the executor's CPU demand as a fraction of the node.
	Demand float64
	// FairShareGB is the per-executor data share at spawn time, used for
	// the cache-efficiency penalty. Spawn stores that penalty with it and
	// Grow refreshes it with ItemsGB; writing either field directly leaves
	// the stored penalty stale.
	FairShareGB float64

	// rate is the current processing rate (GB/s), recomputed between
	// events.
	rate float64
	// cacheEff is the cache-efficiency factor of the rate formula (see
	// cacheGamma). It depends only on ItemsGB and FairShareGB, so
	// Spawn and Grow, their only writers, store it here and the rate pass
	// reads it instead of evaluating the power on every recompute.
	cacheEff float64
	// gateUntil is a per-executor processing gate: the rate is zero until
	// both it and the app-level startupUntil have passed. Zero for ordinary
	// spawns (the app gate alone governs); migration sets it to the
	// checkpoint-restore-plus-restart completion time on the new node.
	gateUntil float64
	// processedGB is the work this executor has processed since it spawned,
	// integrated at the app's settle points. It is the state a graceful
	// migration must checkpoint and move.
	processedGB float64
}
