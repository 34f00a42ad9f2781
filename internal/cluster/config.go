// Package cluster is a discrete-event simulator of the paper's evaluation
// platform: a 40-node cluster (8-core/16-thread Xeon, 64 GB RAM, 16 GB swap
// per node) running Spark executors under a YARN-like resource manager.
//
// The simulator models exactly the quantities the paper's scheduling problem
// depends on: per-executor memory footprints (ground truth from the
// workload models), admission-time memory reservations, CPU demand
// aggregation and contention, paging when actual memory use overflows a
// node, out-of-memory kills when it overflows swap, RDD-cache efficiency
// when an executor is given fewer data items than its fair share, and a
// coordinating node that runs profiling passes whose output counts towards
// job completion. Progress is fluid (piecewise-constant rates integrated
// between events), which keeps runs deterministic and fast while preserving
// the contention behaviour that separates the co-location policies.
package cluster

import (
	"fmt"
	"math"

	"moespark/internal/workload"
)

// The platform model is the paper's testbed (Section 5.1), one value per
// quantity: every run uses the constants below, and every node of a cluster
// built by New is ReferenceNode.
const (
	// pagePenalty scales the paging slowdown: executor rates are divided by
	// (1 + pagePenalty * overflowGB / usableGB) while a node's actual memory
	// use exceeds the pressure watermark.
	pagePenalty = 30
	// pressureWatermark is the fraction of usable memory beyond which a node
	// is under memory pressure (page-cache loss, GC storms) and the paging
	// penalty starts to apply. It is also the share of usable memory a node
	// advertises for reservations (NodeSpec.AllocatableGB).
	pressureWatermark = 0.92
	// ProfilingRateFactor scales an application's scan rate during
	// profiling runs (instrumented, single-host execution is slower).
	ProfilingRateFactor = 0.7
	// heapPenalty scales the executor-level slowdown when an executor's true
	// footprint exceeds its granted heap (reservation): spilling,
	// recomputation and GC thrash. The rate is divided by
	// (1 + heapPenalty * (shortfall/reserve)^2), floored at heapFloor —
	// quadratic, so small under-predictions are survivable and large ones
	// are crippling.
	heapPenalty = 4
	// heapFloor bounds the heap-pressure penalty from below.
	heapFloor = 0.05
	// offHeapFrac is how far an executor's resident memory can exceed its
	// granted heap (JVM metaspace, off-heap buffers) before the excess
	// spills to disk instead of RAM.
	offHeapFrac = 0.15
	// interferenceAlpha is the mild co-location slowdown from shared
	// caches/memory bandwidth even when CPU is not saturated: rates are
	// divided by (1 + alpha * co-runner CPU demand).
	interferenceAlpha = 0.12
	// cacheGamma shapes the RDD-cache efficiency penalty for executors
	// allocated fewer data items than their fair share: rate is multiplied
	// by (items/fairShare)^cacheGamma, floored at cacheFloor. The penalty
	// applies only when the fair share exceeds MinChunkGB and the items are
	// below it; otherwise the factor is 1. It is computed when Spawn or Grow
	// sets the allocation and stored on the executor.
	cacheGamma = 0.3
	// cacheFloor bounds the cache-efficiency penalty from below.
	cacheFloor = 0.6
	// coordinatorRateGBps is the aggregate profiling throughput of the
	// coordinating node. Profiling applications share it processor-style:
	// each proceeds at its own scan rate, scaled down when the sum of scan
	// rates exceeds the capacity.
	coordinatorRateGBps = 1.2
	// MinChunkGB is the smallest data allocation worth spawning an executor
	// for.
	MinChunkGB = 0.05
	// GrowMinFreeGB is the unreserved memory a node must have beyond which
	// the dispatcher widens an executor on it; TakeGrowable (see
	// nodeindex.go) lists executors only on such nodes.
	GrowMinFreeGB = 0.5
	// GrowChurn is the factor by which a grow must widen an executor's
	// items to be worth the churn: the dispatcher grows an executor only to
	// more than ItemsGB*GrowChurn, and items are capped at FairShareGB, so
	// only an executor with ItemsGB*GrowChurn < FairShareGB (a widenable
	// one) can ever grow.
	GrowChurn = 1.05
	// oomReprocessFrac is the fraction of a killed executor's allocation
	// that must be reprocessed (lost partial work).
	oomReprocessFrac = 1.0
	// startupSec is the application launch latency (driver start, JVM
	// spin-up, YARN container allocation) before processing begins.
	startupSec = 8.0
	// migrateCheckpointGBps is the bandwidth at which an executor's
	// processed state is checkpointed and restored during a migration
	// (serialize + ship + rehydrate, end to end).
	migrateCheckpointGBps = 0.5
	// migrateRestartSec is the fixed restart penalty a migrated executor
	// pays on its new node (container allocation, JVM spin-up) on top of
	// the checkpoint time; it matches the startup latency.
	migrateRestartSec = 8.0
	// oomCoolOffSec is the base cool-off of the first retried blacklist
	// entry under Config.OOMRetryBudget: four minutes.
	oomCoolOffSec = 240.0
)

// ReferenceNode is the paper's testbed machine (workload.PaperNode): 64 GB
// RAM, 16 hardware threads, 16 GB swap and a 4 GB OS reserve. New gives
// every node this spec, a CPU demand of 1.0 saturates its cores, and
// fleet-aware sizing scales ExecutorSpreadGB by a node's allocatable memory
// relative to its own.
func ReferenceNode() NodeSpec { return specFrom(workload.PaperNode()) }

// Config holds the settings that vary between runs. Everything else about
// the platform is fixed: see the constants above and ReferenceNode.
type Config struct {
	// Nodes is the number of computing nodes (the driver runs on a separate
	// coordinating node).
	Nodes int
	// MaxExecutorNodes caps how many nodes a single application spreads
	// over (Spark dynamic allocation).
	MaxExecutorNodes int
	// ExecutorSpreadGB is the input volume one executor on a reference node
	// is sized for. Cluster.fleetSizes credits each available node with this
	// volume scaled by its allocatable memory; NodesFor applies it as if
	// every node were a free reference node. An application's executor-fleet
	// cap is sized from the nodes free at admission and raised, up to the
	// fleet an idle cluster would give it, as capacity frees (see
	// Cluster.refreshFleetCaps).
	ExecutorSpreadGB float64
	// TraceInterval, when positive, samples per-node utilization every so
	// many simulated seconds (Figure 7).
	TraceInterval float64
	// MigrateOnDrain, when set, gracefully evacuates a draining node: each
	// resident executor is checkpointed and moved to a feasible node (free
	// reservation, no same-app executor, not blacklisted) instead of running
	// to completion in place. The moved executor keeps its reservation,
	// allocation and accumulated progress; it resumes after a gate of
	// processedGB / migrateCheckpointGBps + migrateRestartSec. Off by
	// default: migration changes drain dynamics, and the historical goldens pin
	// the run-in-place behaviour.
	MigrateOnDrain bool
	// OOMRetryBudget, when positive, replaces the permanent per-node OOM
	// blacklist with a retry budget: the app's first OOMRetryBudget
	// blacklist entries expire after a cool-off (oomCoolOffSec, doubling
	// per retry consumed — deterministic exponential backoff), and only
	// once the budget is exhausted do entries become permanent again. Zero
	// keeps the legacy permanent blacklist the goldens pin.
	OOMRetryBudget int
}

// DefaultConfig returns the paper's platform: 40 reference nodes, one
// executor per 16 GB of input on a reference node, up to every node, and
// the resilience features (drain migration, OOM retry budgets) off, since
// turning them on moves every golden that includes a drain or an OOM kill.
func DefaultConfig() Config {
	return Config{
		Nodes:            40,
		MaxExecutorNodes: 40,
		ExecutorSpreadGB: 16,
	}
}

// validate rejects settings that no run can use. Each check is written so
// that a NaN fails it.
func (c Config) validate() error {
	switch {
	case !(c.ExecutorSpreadGB > 0) || math.IsInf(c.ExecutorSpreadGB, 1):
		return fmt.Errorf("cluster: ExecutorSpreadGB %v, want a positive finite volume", c.ExecutorSpreadGB)
	case c.MaxExecutorNodes < 1:
		return fmt.Errorf("cluster: MaxExecutorNodes %d, want at least 1", c.MaxExecutorNodes)
	case !(c.TraceInterval >= 0) || math.IsInf(c.TraceInterval, 1):
		return fmt.Errorf("cluster: TraceInterval %v, want a non-negative finite interval", c.TraceInterval)
	case c.OOMRetryBudget < 0:
		return fmt.Errorf("cluster: OOMRetryBudget %d, want a non-negative budget", c.OOMRetryBudget)
	}
	return nil
}

// NodesFor returns the executor-fleet size Spark's dynamic allocation picks
// for an input of the given size on a free fleet of reference nodes:
// ceil(input/ExecutorSpreadGB), at least 1 and at most MaxExecutorNodes. It
// sizes the isolated run (Cluster.IsolatedTime) and the fleet of an app
// admitted when no node is eligible (Cluster.fleetSizes).
func (c Config) NodesFor(inputGB float64) int {
	// Clamped as a float, so a huge input cannot overflow the conversion,
	// and written as !(n >= 1) so a NaN input sizes to 1.
	n := math.Ceil(inputGB / c.ExecutorSpreadGB)
	if n > float64(c.MaxExecutorNodes) {
		n = float64(c.MaxExecutorNodes)
	}
	if !(n >= 1) {
		n = 1
	}
	return int(n)
}
