package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"moespark/internal/parallel"
	"moespark/internal/workload"
)

// ProfilePlan describes the profiling a policy performs for one application
// before scheduling it: VolumeGB is processed on the coordinating node (and
// costs time); ContributesGB of it is useful output that counts towards the
// job (the paper's profiling wastes no cycles; an online search wastes most
// of its probing volume).
type ProfilePlan struct {
	VolumeGB      float64
	ContributesGB float64
}

// ContributingProfile is the common case: all profiled data contributes.
func ContributingProfile(gb float64) ProfilePlan {
	return ProfilePlan{VolumeGB: gb, ContributesGB: gb}
}

// ExecOutcome classifies how an executor's true footprint became known to
// the engine.
type ExecOutcome int

// Executor observation outcomes.
const (
	// ExecCompleted: the executor's application completed; the footprint was
	// realised in full.
	ExecCompleted ExecOutcome = iota + 1
	// ExecOOMKilled: the executor was killed for overflowing its node's
	// RAM+swap.
	ExecOOMKilled
)

// Observer is an optional Scheduler extension, the engine side of the online
// prediction pipeline: when the scheduler implements it, the engine reports
// each executor's predicted-vs-actual footprint at the exact moment the
// outcome becomes known — application completion (before the executors are
// released) or an OOM kill (before the victim is reclaimed). Observe runs
// inside the event loop and must not mutate the cluster (no Spawn, Grow or
// Preempt); it exists to feed prediction error back into adaptive models.
// Executors complete in deterministic engine order, so observer-driven model
// updates are reproducible.
type Observer interface {
	Observe(c *Cluster, e *Executor, outcome ExecOutcome)
}

// Scheduler is a co-location policy driving the simulated cluster. The
// engine invokes Prepare once per submitted application (to plan profiling)
// and Schedule whenever cluster state changes (submission, profiling
// completion, executor/app completion).
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Prepare returns the profiling plan the policy needs for the
	// application before it becomes schedulable. Profiling runs on the
	// coordinating node; the contributed part of its output counts towards
	// job completion, as in the paper. Return the zero plan for no
	// profiling.
	Prepare(c *Cluster, app *App) ProfilePlan
	// Schedule may inspect the cluster and spawn executors via Spawn.
	Schedule(c *Cluster)
}

// Cluster is the simulated platform plus simulation state.
type Cluster struct {
	cfg        Config
	nodes      []*Node
	apps       []*App
	pending    []Submission
	nodeEvents []NodeEvent
	foreign    []*ForeignTask
	now        float64
	trace      *Trace
	nextNodeID int

	// classed is set when any submission carries a non-zero tenant class;
	// untagged runs skip the weighted-admission ordering entirely so the
	// single-class path stays bit-for-bit identical to the pre-class engine.
	classed bool

	// Event index (see eventindex.go): active sets and done-counters keep
	// the per-event loops proportional to in-flight work, dirtyNodes and the
	// wake heap keep rate recomputation proportional to what changed.
	active        []*App         // apps not yet done, submission order
	profiling     []*App         // apps currently profiling, submission order
	activeForeign []*ForeignTask // foreign tasks not yet done, registration order
	draining      []*Node        // nodes in the Draining state, drain order
	doneApps      int
	doneForeign   int
	dirtyNodes    []*Node
	// wakes holds one lazy-deletion wake heap per event-loop shard, indexed
	// by Node.shard (a single heap on a single-loop cluster): the parallel
	// rate phase pushes each node's wake-up onto its own shard's heap, so the
	// fan-out never contends on a shared structure.
	wakes []wakeHeap
	// completions is the lazy-deletion min-heap of absolute completion
	// deadlines; completionSeq numbers pushes so equal deadlines pop FIFO.
	// touchedApps/touchedForeign collect the entities whose deadlines must be
	// recomputed at the end of the current iteration (refreshDeadlines), and
	// lastShare is the profiling share in force since the last settle point —
	// the rate profiling progress is integrated with.
	completions    completionHeap
	completionSeq  uint64
	touchedApps    []*App
	touchedForeign []*ForeignTask
	lastShare      float64

	// observer is the scheduler's optional observation hook (see Observer),
	// resolved once per run.
	observer Observer

	// checkEvent, when set (differential property tests only), is invoked
	// once per event-loop iteration with the profiling share and the chosen
	// event dt, so a test can replay the scan-based reference engine against
	// the indexed state and assert exact agreement.
	checkEvent func(share, dt float64, ok bool)

	// victimBuf/bestVictimBuf are PreemptFor scratch: victims are collected
	// during the feasibility scan so the kill phase never rescans the node.
	victimBuf     []*Executor
	bestVictimBuf []*Executor
	// shareBuf is fleetFor scratch (per-node spread shares).
	shareBuf []float64

	// Sharded event loop (see shard.go): shards is the resolved partition
	// count (1 = single loop), rackShard maps rack labels to shards for
	// mid-run joins, shardDirty are the reused per-shard slices the dirty
	// list is split into before the parallel rate phase, and pool is the
	// persistent worker pool alive for the duration of one RunOpen.
	shards     int
	rackShard  map[string]int
	shardDirty [][]*Node
	pool       *parallel.Pool
	// epochs counts event-loop iterations this run; shardRated/shardWakes
	// count per-shard rate recomputations and served wake-ups (Result.Epochs
	// and Result.ShardStats).
	epochs     int
	shardRated []int64
	shardWakes []int64

	totalOOM          int
	totalFailKills    int
	totalPreemptKills int
	totalMigrations   int
	totalRetries      int
	totalLostGB       float64
}

// New creates an idle homogeneous cluster: cfg.Nodes nodes, each with the
// platform's default spec (the paper's testbed). An invalid config — a
// non-positive cfg.Nodes or a degenerate platform memory layout — is a
// programmer error and panics with the underlying cause; New used to swallow
// it and return a zero-node cluster whose Run later died with a misleading
// "simulation stalled" message. Callers that construct configs from untrusted
// input should use NewHetero, which returns the error instead.
func New(cfg Config) *Cluster {
	specs := make([]NodeSpec, cfg.Nodes)
	for i := range specs {
		specs[i] = cfg.DefaultNodeSpec()
	}
	c, err := NewHetero(cfg, specs)
	if err != nil {
		panic(fmt.Sprintf("cluster.New: invalid config: %v", err))
	}
	return c
}

// NewHetero creates an idle heterogeneous cluster with one node per spec
// (the spec slice overrides cfg.Nodes). Platform-wide behaviour — penalty
// shapes, watermark, startup latency — still comes from cfg.
func NewHetero(cfg Config, specs []NodeSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, errors.New("cluster: need at least one node spec")
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: negative shard count %d", cfg.Shards)
	}
	c := &Cluster{cfg: cfg}
	c.shards = cfg.Shards
	if c.shards < 1 {
		c.shards = 1
	}
	if c.shards > len(specs) {
		c.shards = len(specs)
	}
	c.nodes = make([]*Node, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = newNode(i, s, cfg, 0)
	}
	c.nextNodeID = len(specs)
	c.assignShards()
	c.wakes = make([]wakeHeap, c.shards)
	c.shardRated = make([]int64, c.shards)
	c.shardWakes = make([]int64, c.shards)
	if cfg.TraceInterval > 0 {
		c.trace = newTrace(cfg.TraceInterval)
	}
	return c, nil
}

// Config returns the platform configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Now returns the current simulation time in seconds.
func (c *Cluster) Now() float64 { return c.now }

// Nodes returns the node list (callers must not mutate it).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Apps returns all submitted applications in FCFS order.
func (c *Cluster) Apps() []*App { return c.apps }

// TotalOOMKills counts executors killed for overflowing RAM+swap.
func (c *Cluster) TotalOOMKills() int { return c.totalOOM }

// TotalFailKills counts executors killed by node failures.
func (c *Cluster) TotalFailKills() int { return c.totalFailKills }

// TotalPreemptKills counts executors killed by higher-priority preemption.
func (c *Cluster) TotalPreemptKills() int { return c.totalPreemptKills }

// TotalMigrations counts executors gracefully moved off draining nodes.
func (c *Cluster) TotalMigrations() int { return c.totalMigrations }

// TotalOOMRetries counts OOM blacklist entries granted a cool-off expiry
// under Config.OOMRetryBudget.
func (c *Cluster) TotalOOMRetries() int { return c.totalRetries }

// TotalLostWorkGB is the reprocessing work charged back across all kills
// (OOM, node failure, preemption): the sum of actual RemainingGB increases.
func (c *Cluster) TotalLostWorkGB() float64 { return c.totalLostGB }

// AvailableNodes counts nodes currently accepting placements.
func (c *Cluster) AvailableNodes() int {
	var n int
	for _, node := range c.nodes {
		if node.Available() {
			n++
		}
	}
	return n
}

// WaitingApps returns the ready-or-running applications that still have
// unassigned work and spare executor slots. Untagged runs list them in FCFS
// order; once any submission carries a tenant class the list is weighted
// FCFS — higher-weight classes first, submission order within a class.
func (c *Cluster) WaitingApps() []*App { return c.AppendWaitingApps(nil) }

// AppendWaitingApps is the allocation-free form of WaitingApps for hot-path
// callers: the waiting set is appended to buf (typically buf[:0] of a reused
// slice) and returned. Only the active set is scanned: completed apps can
// never be waiting, so the filter's outcome is identical and the walk stays
// proportional to in-flight work on long streams.
func (c *Cluster) AppendWaitingApps(buf []*App) []*App {
	start := len(buf)
	for _, a := range c.active {
		if (a.State == StateReady || a.State == StateRunning) &&
			a.RemainingGB > 0 && len(a.Executors) < a.MaxExecutors {
			buf = append(buf, a)
		}
	}
	if c.classed {
		// Stable insertion sort by descending class weight: allocation-free,
		// and the waiting set is small (bounded by in-flight apps). Equal
		// weights keep submission order, so an all-equal-weight run is
		// untouched.
		tail := buf[start:]
		for i := 1; i < len(tail); i++ {
			for j := i; j > 0 && tail[j].Class.Weight > tail[j-1].Class.Weight; j-- {
				tail[j], tail[j-1] = tail[j-1], tail[j]
			}
		}
	}
	return buf
}

// AddReadyApp registers an application in the ready state at the current
// simulation time, bypassing submission and profiling. It exists for
// benchmarks and custom drivers that exercise scheduling logic directly;
// engine-driven runs go through Run / RunOpen instead.
func (c *Cluster) AddReadyApp(job workload.Job) *App {
	a := &App{
		ID: len(c.apps), Job: job,
		SubmitTime: c.now, ReadyTime: c.now, StartTime: -1, DoneTime: -1,
		RemainingGB:  job.InputGB,
		MaxExecutors: c.fleetFor(job.InputGB),
		State:        StateReady,
		settledAt:    c.now, deadline: math.Inf(1),
	}
	c.apps = append(c.apps, a)
	c.active = append(c.active, a)
	return a
}

// fleetFor sizes an application's executor fleet at admission. With
// Config.FleetAwareSizing set (the default), the fleet is sized from the
// specs of nodes actually free at admission: each placeable node contributes
// a spread share proportional to its allocatable memory, and the fleet is
// the fewest largest-first nodes whose shares cover the input (every
// eligible node, when even that is not enough). Without it the platform
// formula Config.NodesFor applies, which assumes every executor lands on a
// reference-sized node — wrong on big/little fleets, where a little node
// carries far less than ExecutorSpreadGB and a big node far more. On a
// uniform reference fleet with enough free nodes both paths agree.
func (c *Cluster) fleetFor(inputGB float64) int {
	if !c.cfg.FleetAwareSizing {
		return c.cfg.NodesFor(inputGB)
	}
	refAlloc := c.cfg.AllocatableGB()
	if refAlloc <= 0 {
		return c.cfg.NodesFor(inputGB)
	}
	c.shareBuf = c.shareBuf[:0]
	for _, n := range c.nodes {
		if !n.Available() || n.FreeGB() <= c.cfg.MinChunkGB {
			continue
		}
		share := c.cfg.ExecutorSpreadGB * n.AllocatableGB() / refAlloc
		// Insertion sort descending: fleets are small and node order breaks
		// ties deterministically.
		c.shareBuf = append(c.shareBuf, share)
		for i := len(c.shareBuf) - 1; i > 0 && c.shareBuf[i] > c.shareBuf[i-1]; i-- {
			c.shareBuf[i], c.shareBuf[i-1] = c.shareBuf[i-1], c.shareBuf[i]
		}
	}
	if len(c.shareBuf) == 0 {
		return c.cfg.NodesFor(inputGB)
	}
	const eps = 1e-9
	k, covered := 0, 0.0
	for k < len(c.shareBuf) && covered < inputGB-eps {
		covered += c.shareBuf[k]
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

// refreshFleetCaps re-derives the executor-fleet cap of every in-flight
// application from the nodes free right now, ratcheting the cap upward when
// capacity has freed that the admission-time sizing could not see. Without
// this, a job admitted into a transiently packed fleet — a storm window, a
// burst of arrivals — is capped at one or two executors for its whole
// lifetime and crawls on an otherwise idle cluster. The cap never shrinks
// (executors are never revoked by sizing), and an app already at the
// reference-formula size is skipped, so admissions that saw a free fleet —
// every closed-system run — are bit-for-bit unchanged either way.
func (c *Cluster) refreshFleetCaps() {
	if !c.cfg.RefreshFleetSizing || !c.cfg.FleetAwareSizing {
		// Off (historical admission-time-only sizing), or the static
		// platform formula applies, which does not depend on free capacity
		// and is already final.
		return
	}
	for _, a := range c.active {
		if a.State != StateReady && a.State != StateRunning {
			continue
		}
		if a.RemainingGB <= 0 || a.MaxExecutors >= c.cfg.NodesFor(a.Job.InputGB) {
			continue
		}
		if k := c.fleetFor(a.Job.InputGB); k > a.MaxExecutors {
			a.MaxExecutors = k
		}
	}
}

// AddForeign pins a foreign co-runner task (e.g. a PARSEC benchmark) to a
// node, typically before the run starts. A task added by a mid-run driver
// starts at the cluster's current clock, not at t=0.
func (c *Cluster) AddForeign(nodeID int, name string, cpuLoad, memoryGB, workSec float64) (*ForeignTask, error) {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return nil, fmt.Errorf("cluster: node %d out of range", nodeID)
	}
	f := &ForeignTask{
		Name: name, Node: c.nodes[nodeID], CPULoad: cpuLoad,
		MemoryGB: memoryGB, WorkSec: workSec, remaining: workSec,
		StartTime: c.now, DoneTime: -1,
		settledAt: c.now, deadline: math.Inf(1),
	}
	c.nodes[nodeID].Foreign = append(c.nodes[nodeID].Foreign, f)
	c.foreign = append(c.foreign, f)
	c.activeForeign = append(c.activeForeign, f)
	c.markDirty(c.nodes[nodeID])
	return f, nil
}

// IsolatedTime is the closed-form execution time of a job run alone on the
// cluster with its full executor fleet and all node memory (the C_is of
// Equations 1 and 2).
func (c *Cluster) IsolatedTime(job workload.Job) float64 {
	k := c.cfg.NodesFor(job.InputGB)
	return c.cfg.StartupSec + job.InputGB/(float64(k)*job.Bench.ScanRate)
}

// Spawn / Grow / Preempt validation errors.
var (
	ErrAppNotSchedulable = errors.New("cluster: app not in a schedulable state")
	ErrNoFreeMemory      = errors.New("cluster: insufficient unreserved memory on node")
	ErrExecutorCap       = errors.New("cluster: app already at its executor cap")
	ErrAlreadyOnNode     = errors.New("cluster: app already has an executor on node")
	ErrChunkTooSmall     = errors.New("cluster: data allocation below minimum chunk")
	ErrNodeUnavailable   = errors.New("cluster: node is draining or failed")
	ErrShrinkReservation = errors.New("cluster: Grow cannot shrink the reservation")
	ErrNotPreemptible    = errors.New("cluster: victim's class is not preemptible")
	ErrNoPriority        = errors.New("cluster: preemptor does not outrank the victim")
)

// Spawn places a new executor of app on node with the given memory
// reservation (heap) and data allocation. The executor's true footprint
// comes from the workload ground truth for itemsGB; the reservation is what
// admission control charges against the node.
func (c *Cluster) Spawn(app *App, node *Node, reserveGB, itemsGB float64) (*Executor, error) {
	const eps = 1e-9
	if !node.Available() {
		return nil, fmt.Errorf("%w: node %d is %v", ErrNodeUnavailable, node.ID, node.state)
	}
	if app.State != StateReady && app.State != StateRunning {
		return nil, fmt.Errorf("%w: %s is %v", ErrAppNotSchedulable, app.Job, app.State)
	}
	// Spawning changes the app's rate structure: settle its progress first so
	// the validation, fair-share and clamp below read RemainingGB exact at
	// the current instant, and queue the deadline refresh.
	c.settleApp(app)
	c.touchApp(app)
	if app.RemainingGB <= eps {
		return nil, fmt.Errorf("%w: no work left", ErrAppNotSchedulable)
	}
	if len(app.Executors) >= app.MaxExecutors {
		return nil, ErrExecutorCap
	}
	if app.ExecutorOn(node) {
		return nil, ErrAlreadyOnNode
	}
	if app.BlockedOn(node, c.now) && len(node.Executors) > 0 {
		// After an OOM kill the app avoids the node while it is shared; an
		// empty node is fine again (the paper re-runs OOM victims in
		// isolation).
		return nil, fmt.Errorf("%w: node %d blacklisted after OOM", ErrAppNotSchedulable, node.ID)
	}
	if reserveGB > node.FreeGB()+eps {
		return nil, fmt.Errorf("%w: want %.2f GB, free %.2f GB", ErrNoFreeMemory, reserveGB, node.FreeGB())
	}
	if itemsGB+eps < math.Min(c.cfg.MinChunkGB, app.RemainingGB) {
		return nil, fmt.Errorf("%w: %.3f GB", ErrChunkTooSmall, itemsGB)
	}
	if itemsGB > app.RemainingGB {
		itemsGB = app.RemainingGB
	}
	slotsLeft := app.MaxExecutors - len(app.Executors)
	fair := app.RemainingGB / float64(slotsLeft)
	need := app.Job.Bench.Footprint(itemsGB)
	e := &Executor{
		App: app, Node: node,
		ReservedGB:  reserveGB,
		ItemsGB:     itemsGB,
		NeedGB:      need,
		ActualGB:    c.resident(need, reserveGB),
		Demand:      app.Job.Bench.CPULoad,
		FairShareGB: fair,
		SpawnTime:   c.now,
	}
	node.Executors = append(node.Executors, e)
	app.Executors = append(app.Executors, e)
	c.markDirty(node)
	if app.State == StateReady {
		app.State = StateRunning
		if app.StartTime < 0 {
			// First executor only: a respawn after an OOM kill must not
			// rewrite the app's recorded execution start (WaitSec feeds the
			// open-system queueing metrics).
			app.StartTime = c.now
		}
		app.startupUntil = c.now + c.cfg.StartupSec
	}
	return e, nil
}

// resident caps an executor's resident memory at its heap plus off-heap
// overhead; the remainder of the demand spills to disk.
func (c *Cluster) resident(needGB, reserveGB float64) float64 {
	cap := reserveGB * (1 + c.cfg.OffHeapFrac)
	if needGB > cap {
		return cap
	}
	return needGB
}

// Grow raises an executor's data allocation and memory reservation in place
// (the paper dynamically adjusts the items given to a co-located executor as
// stages complete and memory frees up). Both deltas must be non-negative:
// shrinking the reservation would drop ReservedGB below the footprint the
// executor was admitted with, bypassing admission control, and is rejected
// with ErrShrinkReservation.
func (c *Cluster) Grow(e *Executor, newReserveGB, newItemsGB float64) error {
	const eps = 1e-9
	if newItemsGB+eps < e.ItemsGB {
		return errors.New("cluster: Grow cannot shrink the allocation")
	}
	if newReserveGB+eps < e.ReservedGB {
		return fmt.Errorf("%w: %.2f GB -> %.2f GB", ErrShrinkReservation, e.ReservedGB, newReserveGB)
	}
	delta := newReserveGB - e.ReservedGB
	if delta > e.Node.FreeGB()+eps {
		return fmt.Errorf("%w: grow needs %.2f GB, free %.2f GB", ErrNoFreeMemory, delta, e.Node.FreeGB())
	}
	// Growing changes the executor's rate inputs: settle before clamping the
	// allocation against the app's progress. (The dirty mark below re-touches
	// the app through the node's rate pass.)
	c.settleApp(e.App)
	if newItemsGB > e.App.RemainingGB {
		newItemsGB = e.App.RemainingGB
	}
	e.ReservedGB = newReserveGB
	e.ItemsGB = newItemsGB
	e.NeedGB = e.App.Job.Bench.Footprint(newItemsGB)
	e.ActualGB = c.resident(e.NeedGB, e.ReservedGB)
	c.markDirty(e.Node)
	return nil
}

// removeExecutor detaches e from its node and app. The node's co-runners
// lose a contender, so it is marked for rate recomputation.
func (c *Cluster) removeExecutor(e *Executor) {
	n := e.Node
	c.markDirty(n)
	for i, x := range n.Executors {
		if x == e {
			n.Executors = append(n.Executors[:i], n.Executors[i+1:]...)
			break
		}
	}
	a := e.App
	for i, x := range a.Executors {
		if x == e {
			a.Executors = append(a.Executors[:i], a.Executors[i+1:]...)
			break
		}
	}
}

// Result summarises one simulation run.
type Result struct {
	// Apps in FCFS order with their timestamps filled in.
	Apps []*App
	// Foreign tasks (if any) with completion times.
	Foreign []*ForeignTask
	// MakespanSec is the time the last app (or foreign task) finished.
	MakespanSec float64
	// OOMKills counts executor OOM kills over the whole run.
	OOMKills int
	// FailKills counts executors killed by node failures.
	FailKills int
	// PreemptKills counts executors killed by higher-priority preemption.
	PreemptKills int
	// Migrations counts executors gracefully moved off draining nodes
	// (Config.MigrateOnDrain).
	Migrations int
	// OOMRetries counts OOM blacklist entries granted a cool-off expiry
	// instead of permanence (Config.OOMRetryBudget).
	OOMRetries int
	// LostWorkGB is the total reprocessing work charged back by OOM kills,
	// node failures and preemptions over the whole run.
	LostWorkGB float64
	// Epochs counts event-loop iterations: on a sharded cluster each is one
	// barrier-synchronised step of every shard (see shard.go), on a
	// single-loop cluster simply one event.
	Epochs int
	// ShardStats has one entry per event-loop shard (a single entry on a
	// single-loop cluster) with the shard's node count and event counters.
	ShardStats []ShardStat
	// Trace holds utilization samples when tracing was enabled.
	Trace *Trace
}

// maxEvents bounds the event loop against policy bugs.
const maxEvents = 2_000_000

// Submission is one timed job arrival: the job enters the cluster's queue at
// time At (seconds). A slice of Submissions is the event source of the
// open-system engine; the closed-batch Run is the special case where every
// At is zero. Class tags the submitting tenant: among simultaneous arrivals,
// higher-weight classes are admitted (and scheduled) first.
type Submission struct {
	At    float64
	Job   workload.Job
	Class workload.Class
}

// Submissions lifts a workload arrival stream into engine submissions,
// carrying any tenant class tags along.
func Submissions(arrivals []workload.Arrival) []Submission {
	subs := make([]Submission, len(arrivals))
	for i, a := range arrivals {
		subs[i] = Submission{At: a.At, Job: a.Job, Class: a.Class}
	}
	return subs
}

// Run submits the jobs at time zero (FCFS order) and simulates until every
// application and foreign task completes. It is a thin closed-batch wrapper
// over RunOpen.
func (c *Cluster) Run(jobs []workload.Job, sched Scheduler) (*Result, error) {
	subs := make([]Submission, len(jobs))
	for i, job := range jobs {
		subs[i] = Submission{At: 0, Job: job}
	}
	return c.RunOpen(subs, sched)
}

// RunOpen consumes a stream of timed submissions and simulates until every
// application and foreign task completes. Each application enters the queue
// at its submission time: the policy's Prepare fires on arrival (not at t=0),
// profiling runs from there, and the recorded SubmitTime yields real per-app
// waiting times. Submissions may be given in any order; ties are admitted
// highest class weight first, then original order (weighted FCFS — plain
// FCFS when no submission carries a class).
func (c *Cluster) RunOpen(subs []Submission, sched Scheduler) (*Result, error) {
	if len(subs) == 0 && len(c.foreign) == 0 {
		return nil, errors.New("cluster: nothing to run")
	}
	for _, s := range subs {
		if s.At < 0 || math.IsNaN(s.At) || math.IsInf(s.At, 0) {
			return nil, fmt.Errorf("cluster: invalid submission time %v", s.At)
		}
		if s.Class != (workload.Class{}) {
			c.classed = true
		}
	}
	c.observer, _ = sched.(Observer)
	c.pending = make([]Submission, len(subs))
	copy(c.pending, subs)
	sort.SliceStable(c.pending, func(i, j int) bool {
		if c.pending[i].At != c.pending[j].At {
			return c.pending[i].At < c.pending[j].At
		}
		return c.pending[i].Class.Weight > c.pending[j].Class.Weight
	})
	c.apps = make([]*App, 0, len(subs))
	c.resetIndex()
	if c.shards > 1 {
		// The shard pool lives for exactly one run: workers park between
		// events on a bounded spin, and closing at return keeps thousands of
		// short test runs from accumulating goroutines. recomputeRates takes
		// the sharded path only while the pool exists.
		c.pool = parallel.NewPool(c.shards)
		defer func() {
			c.pool.Close()
			c.pool = nil
		}()
	}

	// The event cap guards against stalled-policy loops; it scales with the
	// workload so fleet-scale streams (millions of arrivals, each worth a
	// handful of admission/wake/completion events) do not trip it.
	limit := maxEvents
	if n := 8 * (len(subs) + len(c.foreign) + len(c.nodeEvents)); n > limit {
		limit = n
	}
	for ev := 0; ev < limit; ev++ {
		c.epochs++
		if err := c.applyNodeEvents(); err != nil {
			return nil, err
		}
		c.completeDrains()
		first, err := c.admitArrivals(sched)
		if err != nil {
			return nil, err
		}
		if c.allDone() {
			return c.result(), nil
		}
		c.admitProfiling(first)
		c.refreshFleetCaps()
		sched.Schedule(c)
		c.recomputeRates()
		// The profiling share is a pure function of the profiling set, which
		// cannot change until the next iteration mutates it: compute it once,
		// settle the profiling set if it moved, and refresh the completion
		// deadlines of everything whose rates changed this iteration.
		share := c.profilingShare()
		c.refreshDeadlines(share)
		dt, ok := c.nextEventDt()
		if c.checkEvent != nil {
			c.checkEvent(share, dt, ok)
		}
		if !ok {
			return nil, fmt.Errorf("cluster: simulation stalled at t=%.1fs under %s (no runnable work)", c.now, sched.Name())
		}
		c.advance(dt)
	}
	return nil, fmt.Errorf("cluster: exceeded %d events under %s", limit, sched.Name())
}

// admitArrivals moves every submission whose time has come into the cluster
// and returns the index of the first newly admitted application. All apps
// arriving at the same instant are registered (visible via Apps()) before
// any of their Prepare calls fire, preserving the pre-refactor closed-batch
// semantics where a policy's Prepare could inspect the whole batch;
// profiling plans are then gathered in arrival order.
func (c *Cluster) admitArrivals(sched Scheduler) (int, error) {
	const eps = 1e-9
	first := len(c.apps)
	for len(c.pending) > 0 && c.pending[0].At <= c.now+eps {
		sub := c.pending[0]
		c.pending = c.pending[1:]
		a := &App{
			ID: len(c.apps), Job: sub.Job, Class: sub.Class,
			SubmitTime: sub.At, ReadyTime: -1, StartTime: -1, DoneTime: -1,
			RemainingGB:  sub.Job.InputGB,
			MaxExecutors: c.fleetFor(sub.Job.InputGB),
			State:        StateQueued,
			settledAt:    c.now, deadline: math.Inf(1),
		}
		c.apps = append(c.apps, a)
		c.active = append(c.active, a)
	}
	for _, app := range c.apps[first:] {
		if err := c.applyProfilePlan(sched, app, sched.Prepare(c, app)); err != nil {
			return first, err
		}
	}
	return first, nil
}

// applyProfilePlan validates one profiling plan and installs it on the app.
func (c *Cluster) applyProfilePlan(sched Scheduler, app *App, plan ProfilePlan) error {
	if plan.VolumeGB < 0 || plan.ContributesGB < 0 || plan.ContributesGB > plan.VolumeGB+1e-9 {
		return fmt.Errorf("cluster: %s returned invalid profiling plan %+v", sched.Name(), plan)
	}
	if plan.ContributesGB > app.RemainingGB {
		plan.ContributesGB = app.RemainingGB
	}
	app.ProfileGB = plan.VolumeGB
	app.ContributeGB = plan.ContributesGB
	app.profileLeft = plan.VolumeGB
	if plan.VolumeGB == 0 {
		app.State = StateReady
		app.ReadyTime = c.now
	}
	return nil
}

// allDone is O(1): pending is a queue head and the done-counters are bumped
// at the single place each entity completes (advance, or failNode for
// foreign tasks lost with their node).
func (c *Cluster) allDone() bool {
	return len(c.pending) == 0 && c.doneApps == len(c.apps) && c.doneForeign == len(c.foreign)
}

// admitProfiling moves every queued application onto the coordinating node;
// profiling runs share the coordinator's capacity processor-style. Queued
// apps are always the tail admitted this iteration (admission and this call
// run back-to-back every event), so only apps[first:] is walked.
func (c *Cluster) admitProfiling(first int) {
	for _, a := range c.apps[first:] {
		if a.State == StateQueued {
			a.State = StateProfiling
			a.settledAt = c.now
			c.profiling = append(c.profiling, a)
			// A new profiling app needs a deadline even when the share does
			// not move (refreshDeadlines only settles the set on a change).
			c.touchApp(a)
		}
	}
}

// profilingShare returns the rate scale applied to each profiling app so the
// aggregate stays within the coordinator's capacity. The profiling list is
// kept in submission order, so the sum accumulates in exactly the order the
// full-apps scan used to.
func (c *Cluster) profilingShare() float64 {
	var sum float64
	for _, a := range c.profiling {
		sum += a.Job.Bench.ScanRate
	}
	if sum <= c.cfg.CoordinatorRateGBps || sum == 0 {
		return 1
	}
	return c.cfg.CoordinatorRateGBps / sum
}

// recomputeRates refreshes executor/foreign rates, applying CPU contention,
// interference, paging, cache-efficiency and OOM kills. All capacity math
// reads the node's own spec, so heterogeneous fleets page, contend and
// speed-scale per node. Only dirty nodes are recomputed: a rate is a
// deterministic function of node-local state, so a node whose executors,
// foreign tasks and startup gates did not change since the last pass holds
// bit-identical rates already (every mutation marks its node via markDirty,
// and startup expiries re-dirty through the wake heap). Dirty nodes are
// processed in node order — the order the full scan used — because OOM-kill
// charge-backs on different nodes can touch the same application.
func (c *Cluster) recomputeRates() {
	c.wakeExpiredNodes()
	if len(c.dirtyNodes) == 0 {
		return
	}
	// Insertion sort by node ID: c.nodes is ID-ordered (joins append rising
	// IDs), the dirty list is short, and sort.Slice would allocate.
	for i := 1; i < len(c.dirtyNodes); i++ {
		for j := i; j > 0 && c.dirtyNodes[j].ID < c.dirtyNodes[j-1].ID; j-- {
			c.dirtyNodes[j], c.dirtyNodes[j-1] = c.dirtyNodes[j-1], c.dirtyNodes[j]
		}
	}
	if c.pool != nil {
		// Sharded run: serial settle/OOM prepass in the same node-ID order,
		// then the pure rate halves fanned out one partition per shard
		// (shard.go). Bit-identical to the loop below at any shard count.
		c.rateDirtySharded()
		return
	}
	// Drain by index, not by range snapshot: rateNode's enforceOOM can call
	// markDirty mid-drain (today only for the node being rated, whose flag
	// is still set, but a range over a stale snapshot would silently strand
	// any newly appended node with dirty=true and no list entry).
	for i := 0; i < len(c.dirtyNodes); i++ {
		n := c.dirtyNodes[i]
		c.rateNode(n)
		n.dirty = false
	}
	c.dirtyNodes = c.dirtyNodes[:0]
}

// rateNode recomputes every rate on one node (the former recomputeRates
// per-node body): the settle/OOM half followed by the pure rate half — the
// exact composition the sharded pass runs with the halves regrouped into a
// serial prepass and a parallel fan-out.
func (c *Cluster) rateNode(n *Node) {
	c.settleNode(n)
	c.computeNodeRates(n, n.shard)
}

// settleNode is the serial half of rating one node: settle every resident
// entity's progress under the OLD rates (they held from the last settle
// point up to this instant) and queue deadline refreshes — even for entities
// already settled this iteration, since the new rates shift their deadlines —
// then apply OOM kills. Across a dirty set it must run in node-ID order
// before any rate is reassigned: OOM charge-backs on different nodes can
// touch the same application.
func (c *Cluster) settleNode(n *Node) {
	for _, e := range n.Executors {
		c.settleApp(e.App)
		c.touchApp(e.App)
	}
	for _, f := range n.Foreign {
		if !f.done {
			c.settleForeign(f)
			c.touchForeign(f)
		}
	}
	c.enforceOOM(n)
}

// computeNodeRates is the pure half: recompute every rate on the node from
// its settled state and refresh the node's wake-up — the earliest future
// startup expiry among its executors, re-registered on the given shard's
// wake heap when it changed so the node is re-dirtied the instant a zero
// rate comes alive. It reads only node-local state (plus per-app startup
// gates, which only the serial engine writes) and writes only the node's own
// rates, wake time and shard slots, so the sharded pass runs it for
// different shards concurrently.
func (c *Cluster) computeNodeRates(n *Node, shard int) {
	c.shardRated[shard]++
	sumD := n.CPUDemand()
	usable := n.Spec.UsableGB()
	speed := n.Spec.SpeedFactor
	overflow := n.ActualGB() - c.cfg.PressureWatermark*usable
	pageFactor := 1.0
	if overflow > 0 {
		pageFactor = 1 / (1 + c.cfg.PagePenalty*overflow/usable)
	}
	cpuFactor := 1.0
	if cap := n.cpuCap; sumD > cap {
		cpuFactor = cap / sumD
	}
	wake := math.Inf(1)
	for _, e := range n.Executors {
		// The effective gate is the later of the app-level startup and the
		// executor's own migration gate; until it passes the executor holds a
		// zero rate and the node wakes (re-dirties) the instant it expires.
		gate := e.App.startupUntil
		if e.gateUntil > gate {
			gate = e.gateUntil
		}
		if gate > c.now {
			e.rate = 0
			if gate < wake {
				wake = gate
			}
			continue
		}
		interference := 1 / (1 + c.cfg.InterferenceAlpha*(sumD-e.Demand))
		cacheEff := 1.0
		if e.FairShareGB > c.cfg.MinChunkGB && e.ItemsGB < e.FairShareGB {
			cacheEff = math.Pow(e.ItemsGB/e.FairShareGB, c.cfg.CacheGamma)
			if cacheEff < c.cfg.CacheFloor {
				cacheEff = c.cfg.CacheFloor
			}
		}
		heapFactor := 1.0
		if e.ReservedGB > 0 && e.NeedGB > e.ReservedGB {
			shortfall := (e.NeedGB - e.ReservedGB) / e.ReservedGB
			heapFactor = 1 / (1 + c.cfg.HeapPenalty*shortfall*shortfall)
			if heapFactor < c.cfg.HeapFloor {
				heapFactor = c.cfg.HeapFloor
			}
		}
		e.rate = e.App.Job.Bench.ScanRate * speed * cpuFactor * interference * pageFactor * cacheEff * heapFactor
	}
	for _, f := range n.Foreign {
		if f.done {
			continue
		}
		interference := 1 / (1 + c.cfg.InterferenceAlpha*(sumD-f.CPULoad))
		f.rate = speed * cpuFactor * interference * pageFactor
	}
	if wake != n.wakeAt {
		n.wakeAt = wake
		if !math.IsInf(wake, 1) {
			c.wakes[shard].push(wake, n)
		}
	}
}

// reclaimExecutor removes a killed executor and charges its lost partial
// work back to the application: the partially-processed partitions must be
// recomputed when the app is re-run, and an app that lost its last executor
// goes back to waiting. Shared by the OOM-kill and node-failure paths so
// the reprocessing accounting cannot diverge between them.
func (c *Cluster) reclaimExecutor(victim *Executor) {
	app := victim.App
	// Settle before the charge-back lands, and queue a deadline refresh: the
	// app may keep executors on other (clean) nodes, so the node's own rate
	// pass would not necessarily re-register it.
	c.settleApp(app)
	c.touchApp(app)
	c.removeExecutor(victim)
	before := app.RemainingGB
	app.RemainingGB += c.cfg.OOMReprocessFrac * victim.ItemsGB
	if app.RemainingGB > app.Job.InputGB {
		app.RemainingGB = app.Job.InputGB
	}
	// Degradation accounting: the actual post-clamp increase is the work
	// genuinely lost, the quantity the faults study's goodput is built on.
	app.LostWorkGB += app.RemainingGB - before
	c.totalLostGB += app.RemainingGB - before
	if len(app.Executors) == 0 && app.State == StateRunning {
		app.State = StateReady
	}
}

// Preempt kills one executor on behalf of a higher-priority application,
// reusing the OOM/fail charge-back path: the victim's partially-processed
// items return to its app's remaining pool and the kill is counted in
// App.PreemptKills / Result.PreemptKills. The victim's class must be
// preemptible and strictly outranked by the preemptor's.
func (c *Cluster) Preempt(victim *Executor, by *App) error {
	if !victim.App.Class.Preemptible {
		return fmt.Errorf("%w: %s", ErrNotPreemptible, victim.App.Job)
	}
	if victim.App == by || victim.App.Class.Weight >= by.Class.Weight {
		return fmt.Errorf("%w: weight %.1f vs %.1f", ErrNoPriority,
			by.Class.Weight, victim.App.Class.Weight)
	}
	victim.App.PreemptKills++
	c.totalPreemptKills++
	c.reclaimExecutor(victim)
	return nil
}

// PreemptFor frees resources for an arriving high-priority application by
// reclaiming preemptible lower-priority executors, newest first, on a single
// node: needGB of reservable memory, cpuDemand of CPU headroom, and — when
// maxAppsPerNode is positive — an application slot under that cap (pass 0
// for constraints the scheduling policy does not enforce; killed executors
// free their CPU demand and app slot along with their reservation). The
// memory target is clamped per node to the node's allocatable memory: a
// bigger ask than a whole node can never be freed on one machine, and
// schedulers shrink oversized allocations to whatever fits anyway. It picks
// the placeable node that can reach every target with the fewest kills
// (ties keep node-scan order) and returns the number of executors killed —
// zero when some placeable node already has the resources, or when no node
// can reach them even after killing every eligible victim. Victims are
// collected during the feasibility scan itself (newest first, exactly the
// executors the scan charged), so the kill phase is a straight walk of that
// list instead of a tail rescan per kill.
func (c *Cluster) PreemptFor(app *App, needGB, cpuDemand float64, maxAppsPerNode int) int {
	const eps = 1e-9
	bestNode := -1
	c.bestVictimBuf = c.bestVictimBuf[:0]
	for i, n := range c.nodes {
		if !n.Available() || app.ExecutorOn(n) || (app.BlockedOn(n, c.now) && len(n.Executors) > 0) {
			continue
		}
		target := needGB
		if a := n.AllocatableGB(); target > a {
			target = a
		}
		// Deliberately not n.FreeGB(): its clamp at zero would hide an
		// overcommit (foreign working sets bypass admission), and the kill
		// simulation must start from the true deficit.
		free := n.AllocatableGB() - n.ReservedGB()
		cpuFree := n.CPUCapacity() - n.CPUDemand()
		// An app never holds two executors on one node, so each kill frees
		// one application slot.
		apps := n.AppCount()
		ok := func() bool {
			return free+eps >= target && cpuFree+eps >= cpuDemand &&
				(maxAppsPerNode <= 0 || apps < maxAppsPerNode)
		}
		if ok() {
			return 0
		}
		c.victimBuf = c.victimBuf[:0]
		for j := len(n.Executors) - 1; j >= 0 && !ok(); j-- {
			e := n.Executors[j]
			if !e.App.Class.Preemptible || e.App == app || e.App.Class.Weight >= app.Class.Weight {
				continue
			}
			free += e.ReservedGB
			cpuFree += e.Demand
			apps--
			c.victimBuf = append(c.victimBuf, e)
		}
		if !ok() {
			continue
		}
		if bestNode < 0 || len(c.victimBuf) < len(c.bestVictimBuf) {
			bestNode = i
			c.victimBuf, c.bestVictimBuf = c.bestVictimBuf, c.victimBuf
		}
	}
	if bestNode < 0 {
		return 0
	}
	killed := 0
	for _, victim := range c.bestVictimBuf {
		if err := c.Preempt(victim, app); err != nil {
			break
		}
		killed++
	}
	return killed
}

// enforceOOM kills the newest executors on a node until actual memory fits
// within RAM+swap, mirroring the paper's re-run-on-OOM policy (the lost
// executor's data stays in the app's remaining pool).
func (c *Cluster) enforceOOM(n *Node) {
	limit := n.Spec.UsableGB() + n.Spec.SwapGB
	for n.ActualGB() > limit && len(n.Executors) > 0 {
		victim := n.Executors[len(n.Executors)-1]
		victim.App.OOMKills++
		c.totalOOM++
		victim.App.blockNode(n, c.blacklistUntil(victim.App))
		if c.observer != nil {
			c.observer.Observe(c, victim, ExecOOMKilled)
		}
		c.reclaimExecutor(victim)
	}
}

// appRate sums the executor rates of an app.
func appRate(a *App) float64 {
	var s float64
	for _, e := range a.Executors {
		s += e.rate
	}
	return s
}

// nextEventDt finds the time to the next state-changing event. Every event
// source is now a queue head: rate-driven completions come off the deadline
// heap (stale tops are discarded in passing), startup expiries off the wake
// heap, and submissions, node events and trace samples off their time-sorted
// queues — O(log heap) per event instead of a scan over the active sets.
// Every deadline on the heap equals what a fresh scan over the settled state
// would compute (refreshDeadlines re-registers on every rate change), so the
// heap top IS the scan minimum.
func (c *Cluster) nextEventDt() (float64, bool) {
	const tiny = 1e-9
	best := math.Inf(1)
	for len(c.completions) > 0 {
		top := c.completions[0]
		if top.stale() {
			c.completions.pop()
			continue
		}
		if dt := top.at - c.now; dt < best {
			best = dt
		}
		break
	}
	for s := range c.wakes {
		h := &c.wakes[s]
		for len(*h) > 0 {
			top := (*h)[0]
			if top.n.wakeAt != top.at {
				h.pop()
				continue
			}
			if dt := top.at - c.now; dt < best {
				best = dt
			}
			break
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
		if dt := c.trace.nextSampleTime(c.now) - c.now; dt < best {
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

// advance moves the clock to the chosen event and fires every completion
// whose deadline has come. Progress integration happens at settle points
// (settleApp/settleForeign), not here: an event that changes no rates costs
// O(pops), not O(active).
func (c *Cluster) advance(dt float64) {
	c.now += dt
	c.popCompletions()
	if c.trace != nil {
		c.trace.maybeSample(c.now, c.nodes)
	}
}

// popCompletions fires every due completion off the deadline heap in
// (deadline, registration) order. The pop window extends one dt-clamp (1e-9s)
// past the clock: the event dt is computed as deadline-minus-now and added
// back onto the clock, so the landing instant can sit an ulp on either side
// of the stored deadline; an entity popped marginally early has at most
// rate*1e-9 GB left, absorbed by the completion epsilon exactly like the
// per-event engine's threshold was. Completed apps are compacted out of the
// order-preserving active/profiling lists in one sweep per completion event.
func (c *Cluster) popCompletions() {
	const tiny = 1e-9
	appsDone, profilingLeft, foreignDone := false, false, false
	for len(c.completions) > 0 {
		top := c.completions[0]
		if top.stale() {
			c.completions.pop()
			continue
		}
		if top.at > c.now+tiny {
			break
		}
		c.completions.pop()
		if top.app != nil {
			wasProfiling := top.app.State == StateProfiling
			c.completeApp(top.app)
			appsDone = appsDone || top.app.State == StateDone
			profilingLeft = profilingLeft || (wasProfiling && top.app.State != StateProfiling)
		} else {
			c.completeForeign(top.f)
			foreignDone = foreignDone || top.f.done
		}
	}
	if appsDone {
		w := 0
		for _, a := range c.active {
			if a.State != StateDone {
				c.active[w] = a
				w++
			}
		}
		clear(c.active[w:])
		c.active = c.active[:w]
	}
	if profilingLeft {
		w := 0
		for _, a := range c.profiling {
			if a.State == StateProfiling {
				c.profiling[w] = a
				w++
			}
		}
		clear(c.profiling[w:])
		c.profiling = c.profiling[:w]
	}
	if foreignDone {
		w := 0
		for _, f := range c.activeForeign {
			// Drops deadline completions and any task killed by a node
			// failure since the last sweep (counted there already).
			if !f.done {
				c.activeForeign[w] = f
				w++
			}
		}
		clear(c.activeForeign[w:])
		c.activeForeign = c.activeForeign[:w]
	}
}

// completeApp settles the app at its deadline and fires the completion
// transition the per-event engine used to detect by thresholding the
// freshly-integrated remainder. If the settled remainder is somehow still
// above the epsilon the deadline was premature (defensive; the refresh pass
// re-registers on every rate change) and the app is simply re-registered.
func (c *Cluster) completeApp(a *App) {
	const eps = 1e-6
	c.settleApp(a)
	switch a.State {
	case StateProfiling:
		if a.profileLeft > eps {
			c.reregisterDeadline(a)
			return
		}
		a.profileLeft = 0
		// The contributed part of the profiled data counts towards the final
		// output.
		a.RemainingGB -= a.ContributeGB
		if a.RemainingGB <= eps {
			a.RemainingGB = 0
			a.State = StateDone
			a.ReadyTime = c.now
			a.DoneTime = c.now
			c.doneApps++
		} else {
			a.State = StateReady
			a.ReadyTime = c.now
		}
	case StateRunning:
		if a.RemainingGB > eps {
			c.reregisterDeadline(a)
			return
		}
		a.RemainingGB = 0
		if c.observer != nil {
			// Report realised footprints while the executors are still
			// attached: the completion is the moment their true demand is
			// confirmed.
			for _, e := range a.Executors {
				c.observer.Observe(c, e, ExecCompleted)
			}
		}
		for len(a.Executors) > 0 {
			c.removeExecutor(a.Executors[0])
		}
		a.State = StateDone
		a.DoneTime = c.now
		c.doneApps++
	}
	a.deadline = math.Inf(1)
}

// reregisterDeadline force-pushes a fresh deadline for an app whose popped
// entry fired before its work was actually done (the entry itself is gone, so
// the one-entry-per-finite-deadline invariant must be restored even if the
// recomputed time is bit-identical).
func (c *Cluster) reregisterDeadline(a *App) {
	a.deadline = math.Inf(1)
	c.setAppDeadline(a, c.lastShare)
}

// completeForeign settles the foreign task at its deadline and completes it.
func (c *Cluster) completeForeign(f *ForeignTask) {
	const eps = 1e-6
	c.settleForeign(f)
	if f.remaining > eps {
		f.deadline = math.Inf(1)
		c.setForeignDeadline(f)
		return
	}
	f.remaining = 0
	f.done = true
	f.DoneTime = c.now
	c.doneForeign++
	f.deadline = math.Inf(1)
	// The finished co-runner stops contending for CPU, so its node's
	// survivors speed up. (Its working set stays resident by default — see
	// the ActualGB quirk note in node.go — or leaves the memory sums too
	// under Config.ReleaseForeignMem; the dirty mark covers both.)
	c.markDirty(f.Node)
}

func (c *Cluster) result() *Result {
	makespan := 0.0
	for _, a := range c.apps {
		if a.DoneTime > makespan {
			makespan = a.DoneTime
		}
	}
	for _, f := range c.foreign {
		if f.DoneTime > makespan {
			makespan = f.DoneTime
		}
	}
	stats := make([]ShardStat, c.shards)
	for s := range stats {
		stats[s] = ShardStat{Shard: s, Rated: c.shardRated[s], Wakes: c.shardWakes[s]}
	}
	for _, n := range c.nodes {
		stats[n.shard].Nodes++
	}
	return &Result{
		Apps:         c.apps,
		Foreign:      c.foreign,
		MakespanSec:  makespan,
		OOMKills:     c.totalOOM,
		FailKills:    c.totalFailKills,
		PreemptKills: c.totalPreemptKills,
		Migrations:   c.totalMigrations,
		OOMRetries:   c.totalRetries,
		LostWorkGB:   c.totalLostGB,
		Epochs:       c.epochs,
		ShardStats:   stats,
		Trace:        c.trace,
	}
}
