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

// Config describes the simulated platform. DefaultConfig matches the paper's
// testbed (Section 5.1).
type Config struct {
	// Nodes is the number of computing nodes (the driver runs on a separate
	// coordinating node).
	Nodes int
	// RAMGB is physical memory per node.
	RAMGB float64
	// BaselineCores is the hardware-thread count of the reference node that
	// CPU demands are expressed against: a demand of 1.0 saturates a
	// BaselineCores node. Heterogeneous nodes scale their CPU capacity as
	// NodeSpec.Cores / BaselineCores. Zero means the paper's 16 threads.
	BaselineCores int
	// OSReserveGB is memory unavailable to executors (OS, daemons, HDFS).
	OSReserveGB float64
	// SwapGB is swap space per node; actual use beyond RAM spills here with
	// a heavy paging penalty, and beyond RAM+swap executors are OOM-killed.
	SwapGB float64
	// PagePenalty scales the paging slowdown: executor rates are divided by
	// (1 + PagePenalty * overflowGB / usableGB) while a node's actual
	// memory use exceeds the pressure watermark.
	PagePenalty float64
	// PressureWatermark is the fraction of usable memory beyond which the
	// node is under memory pressure (page-cache loss, GC storms) and the
	// paging penalty starts to apply.
	PressureWatermark float64
	// ProfilingRateFactor scales an application's scan rate during
	// profiling runs (instrumented, single-host execution is slower).
	ProfilingRateFactor float64
	// HeapPenalty scales the executor-level slowdown when an executor's
	// true footprint exceeds its granted heap (reservation): spilling,
	// recomputation and GC thrash. The rate is divided by
	// (1 + HeapPenalty * (shortfall/reserve)^2), floored at HeapFloor —
	// quadratic, so small under-predictions are survivable and large ones
	// are crippling.
	HeapPenalty float64
	// HeapFloor bounds the heap-pressure penalty from below.
	HeapFloor float64
	// OffHeapFrac is how far an executor's resident memory can exceed its
	// granted heap (JVM metaspace, off-heap buffers) before the excess
	// spills to disk instead of RAM.
	OffHeapFrac float64
	// InterferenceAlpha is the mild co-location slowdown from shared
	// caches/memory bandwidth even when CPU is not saturated: rates are
	// divided by (1 + alpha * co-runner CPU demand).
	InterferenceAlpha float64
	// CacheGamma shapes the RDD-cache efficiency penalty for executors
	// allocated fewer data items than their fair share: rate is multiplied
	// by (items/fairShare)^CacheGamma, floored at CacheFloor. The penalty
	// applies only when the fair share exceeds MinChunkGB and the items are
	// below it; otherwise the factor is 1. It is computed when Spawn or Grow
	// sets the allocation and stored on the executor.
	CacheGamma float64
	// CacheFloor bounds the cache-efficiency penalty from below.
	CacheFloor float64
	// CoordinatorRateGBps is the aggregate profiling throughput of the
	// coordinating node. Profiling applications share it processor-style:
	// each proceeds at its own scan rate, scaled down when the sum of scan
	// rates exceeds the capacity.
	CoordinatorRateGBps float64
	// MaxExecutorNodes caps how many nodes a single application spreads
	// over (Spark dynamic allocation).
	MaxExecutorNodes int
	// ExecutorSpreadGB is the input volume one executor is sized for when
	// deciding an app's executor fleet: fleet = ceil(input/ExecutorSpreadGB).
	ExecutorSpreadGB float64
	// MinChunkGB is the smallest data allocation worth spawning an executor
	// for.
	MinChunkGB float64
	// OOMReprocessFrac is the fraction of an OOM-killed executor's
	// allocation that must be reprocessed (lost partial work).
	OOMReprocessFrac float64
	// StartupSec is the application/executor launch latency (driver start,
	// JVM spin-up, YARN container allocation) before processing begins.
	StartupSec float64
	// ReleaseForeignMem, when set, frees a completed foreign task's working
	// set: its MemoryGB leaves the node's reserved and actual memory the
	// moment the task finishes, so a node stops paying paging/OOM pressure
	// for co-runners that are gone. On by default since the settle-engine
	// golden re-capture; clear it to restore the historical quirk where
	// foreign working sets stay resident forever (documented in node.go).
	ReleaseForeignMem bool
	// FleetAwareSizing, when set, sizes each application's executor fleet
	// from the specs of nodes actually free at admission instead of assuming
	// ExecutorSpreadGB-per-reference-node (see Cluster.fleetFor). On by
	// default since the settle-engine golden re-capture; clear it to restore
	// the reference formula NodesFor unconditionally. On a uniform reference
	// fleet with enough free nodes the two agree.
	FleetAwareSizing bool
	// RefreshFleetSizing, when set with FleetAwareSizing, re-derives each
	// in-flight application's executor-fleet cap at every scheduling event
	// instead of freezing it at admission, ratcheting the cap upward (never
	// down) as capacity frees (see Cluster.refreshFleetCaps). Without it, a
	// job admitted into a transiently packed fleet — a storm window, an
	// arrival burst — keeps its one-or-two-executor cap for life and crawls
	// on an otherwise idle cluster. Off by default: the historical goldens
	// pin admission-time-only sizing, straggler pathology included.
	RefreshFleetSizing bool
	// TraceInterval, when positive, samples per-node utilization every so
	// many simulated seconds (Figure 7).
	TraceInterval float64
	// MigrateOnDrain, when set, gracefully evacuates a draining node: each
	// resident executor is checkpointed and moved to a feasible node (free
	// reservation, no same-app executor, not blacklisted) instead of running
	// to completion in place. The moved executor keeps its reservation,
	// allocation and accumulated progress; it resumes after a gate of
	// processedGB / MigrateCheckpointGBps + MigrateRestartSec. Off by
	// default: migration changes drain dynamics, and the PR1-8 goldens pin
	// the run-in-place behaviour.
	MigrateOnDrain bool
	// MigrateCheckpointGBps is the bandwidth at which an executor's
	// processed state is checkpointed and restored during a migration
	// (serialize + ship + rehydrate, end to end). Non-positive means the
	// checkpoint is free and only MigrateRestartSec gates the move.
	MigrateCheckpointGBps float64
	// MigrateRestartSec is the fixed restart penalty a migrated executor
	// pays on its new node (container allocation, JVM spin-up) on top of the
	// checkpoint time.
	MigrateRestartSec float64
	// OOMRetryBudget, when positive, replaces the permanent per-node OOM
	// blacklist with a retry budget: the app's first OOMRetryBudget
	// blacklist entries expire after a cool-off (OOMCoolOffSec, doubling
	// per retry consumed — deterministic exponential backoff), and only
	// once the budget is exhausted do entries become permanent again. Zero
	// keeps the legacy permanent blacklist the goldens pin.
	OOMRetryBudget int
	// OOMCoolOffSec is the base cool-off of the first retried blacklist
	// entry under OOMRetryBudget.
	OOMCoolOffSec float64
}

// DefaultConfig returns the paper's platform.
func DefaultConfig() Config {
	return Config{
		Nodes:               40,
		RAMGB:               64,
		BaselineCores:       16,
		OSReserveGB:         4,
		SwapGB:              16,
		PagePenalty:         30,
		PressureWatermark:   0.92,
		ProfilingRateFactor: 0.7,
		HeapPenalty:         4,
		HeapFloor:           0.05,
		OffHeapFrac:         0.15,
		InterferenceAlpha:   0.12,
		CacheGamma:          0.3,
		CacheFloor:          0.6,
		CoordinatorRateGBps: 1.2,
		MaxExecutorNodes:    40,
		ExecutorSpreadGB:    16,
		MinChunkGB:          0.05,
		OOMReprocessFrac:    1.0,
		StartupSec:          8,
		ReleaseForeignMem:   true,
		FleetAwareSizing:    true,
		TraceInterval:       0,
		// Resilience features stay opt-in: flipping them moves every golden
		// that includes a drain or an OOM kill. The cost knobs carry
		// defaults so enabling the features needs no further tuning: 0.5
		// GB/s end-to-end checkpoint bandwidth, a restart penalty matching
		// the startup latency, and a 4-minute first cool-off.
		MigrateOnDrain:        false,
		MigrateCheckpointGBps: 0.5,
		MigrateRestartSec:     8,
		OOMRetryBudget:        0,
		OOMCoolOffSec:         240,
	}
}

// UsableGB is the per-node memory available to executors.
func (c Config) UsableGB() float64 { return c.RAMGB - c.OSReserveGB }

// AllocatableGB is the memory a node advertises for reservations: the
// pressure watermark keeps a safety band below the physical limit, exactly
// like YARN's node-manager resource setting.
func (c Config) AllocatableGB() float64 {
	w := c.PressureWatermark
	if w <= 0 || w > 1 {
		w = 1
	}
	return w * c.UsableGB()
}

// NodesFor returns the executor-fleet size Spark's dynamic allocation picks
// for an input of the given size.
func (c Config) NodesFor(inputGB float64) int {
	n := int((inputGB + c.ExecutorSpreadGB - 1) / c.ExecutorSpreadGB)
	if inputGB > 0 && n < 1 {
		n = 1
	}
	if n > c.MaxExecutorNodes {
		n = c.MaxExecutorNodes
	}
	if n < 1 {
		n = 1
	}
	return n
}
