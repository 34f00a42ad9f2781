package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

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
// each executor at the exact moment its true footprint (NeedGB for its
// ItemsGB) becomes known — application completion (before the executors are
// released) or an OOM kill (before the victim is reclaimed). The engine
// records no prediction; a scheduler that wants one re-derives it from the
// estimate it planned the app with. Observe runs inside the event loop and
// must not mutate the cluster (no Spawn, Grow or Preempt); it exists to feed
// prediction error back into adaptive models. Executors complete in
// deterministic engine order, so observer-driven model updates are
// reproducible. The executor is released right after Observe returns and
// recycled by a later Spawn, so Observe must copy what it needs and keep no
// *Executor past the call.
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

	// Event index (see eventindex.go): active sets and done-counters keep
	// the per-event loops proportional to in-flight work, the dirty set and
	// the wake heap keep rate recomputation proportional to what changed.
	// The foreign tasks in flight are counted, not listed: len(foreign)
	// minus doneForeign.
	active      []*App  // apps not yet done, submission order
	profiling   []*App  // apps currently profiling, submission order
	draining    []*Node // nodes in the Draining state, drain order
	doneApps    int
	doneForeign int
	// dirty is the set of nodes pending a rate recomputation, a bitset
	// indexed by node ID (bit ID%64 of word ID/64); node IDs are their
	// indices in nodes, so the set is walked in node order without sorting.
	dirty []uint64
	wakes wakeHeap
	// open is the node index placement reads, and freed holds the nodes
	// the next growth query visits (see nodeindex.go); both are bitsets
	// laid out like dirty, and nodeChanged keeps both current.
	open  []uint64
	freed []uint64
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
	// event dt, so a test can replay the scan-based references of
	// engine_ref_test.go against the indexed state and assert exact
	// agreement.
	checkEvent func(share, dt float64, ok bool)

	// victimBuf/bestVictimBuf are PreemptFor scratch: victims are collected
	// during the feasibility scan so the kill phase never rescans the node.
	victimBuf     []*Executor
	bestVictimBuf []*Executor
	// freeExecs and freeFleets recycle what finished executors leave behind
	// (see recycle.go): released executors, and the App.Executors backing
	// arrays of completed apps indexed by capacity.
	freeExecs  []*Executor
	freeFleets [][][]*Executor
	// bySpread is every node with its spread share (see spreadShare),
	// largest share first, ties in node order: the walk order of fleetSizes.
	// Shares are fixed per node, so it is built once and only joins touch
	// it; nodes that leave stay in it and are skipped as unavailable.
	bySpread []spreadEntry

	totalOOM          int
	totalFailKills    int
	totalPreemptKills int
	totalMigrations   int
	totalRetries      int
	totalLostGB       float64
}

// New creates an idle homogeneous cluster: cfg.Nodes nodes, each a
// ReferenceNode (the paper's testbed). A non-positive cfg.Nodes, or any
// setting NewHetero rejects, is a programmer error and panics with the
// underlying cause; New used to swallow it and return a zero-node cluster
// whose Run later died with a misleading "simulation stalled" message.
// Callers that construct configs from untrusted input should use NewHetero,
// which returns the error instead.
func New(cfg Config) *Cluster {
	specs := make([]NodeSpec, cfg.Nodes)
	for i := range specs {
		specs[i] = ReferenceNode()
	}
	c, err := NewHetero(cfg, specs)
	if err != nil {
		panic(fmt.Sprintf("cluster.New: invalid config: %v", err))
	}
	return c
}

// NewHetero creates an idle heterogeneous cluster with one node per spec
// (the spec slice overrides cfg.Nodes). Platform-wide behaviour — penalty
// shapes, watermark, startup latency — is the package's fixed platform
// model. An invalid setting in cfg or a spec is an error.
func NewHetero(cfg Config, specs []NodeSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, errors.New("cluster: need at least one node spec")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	c.nodes = make([]*Node, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = newNode(i, s, 0)
		c.refreshOpen(c.nodes[i])
	}
	c.bySpread = make([]spreadEntry, len(c.nodes))
	for i, n := range c.nodes {
		c.bySpread[i] = spreadEntry{n, c.spreadShare(n)}
	}
	slices.SortStableFunc(c.bySpread, func(a, b spreadEntry) int {
		return cmp.Compare(b.share, a.share)
	})
	if cfg.TraceInterval > 0 {
		c.trace = newTrace(cfg.TraceInterval)
	}
	return c, nil
}

// Now returns the current simulation time in seconds.
func (c *Cluster) Now() float64 { return c.now }

// Nodes returns the node list (callers must not mutate it).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Apps returns all submitted applications in FCFS order.
func (c *Cluster) Apps() []*App { return c.apps }

// WaitingApps returns the ready-or-running applications that still have
// unassigned work and spare executor slots, in weighted FCFS order:
// higher-weight tenant classes first, submission order within a class (plain
// FCFS when no submission carries a class).
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
	// Stable insertion sort by descending class weight: allocation-free,
	// and the waiting set is small (bounded by in-flight apps). Equal
	// weights never swap, so an untagged run keeps submission order.
	tail := buf[start:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j].Class.Weight > tail[j-1].Class.Weight; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return buf
}

// AddReadyApp registers an application in the ready state at the current
// simulation time, bypassing submission and profiling. It exists for
// benchmarks and custom drivers that exercise scheduling logic directly;
// engine-driven runs go through Run / RunOpen instead. A job RunOpen would
// reject — no benchmark, or an input that is not positive and finite — is an
// error, and nothing is registered.
func (c *Cluster) AddReadyApp(job workload.Job) (*App, error) {
	sub := Submission{At: c.now, Job: job}
	if err := sub.validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	a := c.register(sub)
	a.State, a.ReadyTime = StateReady, c.now
	return a, nil
}

// register appends a queued application for sub to the run, its fleet sized
// from the nodes as they stand now.
func (c *Cluster) register(sub Submission) *App {
	fleet, free := c.fleetSizes(sub.Job.InputGB)
	a := &App{
		ID: len(c.apps), Job: sub.Job, Class: sub.Class,
		SubmitTime: sub.At, ReadyTime: -1, StartTime: -1, DoneTime: -1,
		RemainingGB:  sub.Job.InputGB,
		MaxExecutors: fleet, freeFleet: free,
		State:     StateQueued,
		settledAt: c.now, deadline: math.Inf(1),
	}
	c.apps = append(c.apps, a)
	c.active = append(c.active, a)
	return a
}

// fleetSizes sizes an application's executor fleet twice in one walk. Each
// node counted contributes a spread share proportional to its allocatable
// memory, and a fleet is the fewest largest-first nodes whose shares cover
// the input (every node counted, when even that is not enough), capped at
// MaxExecutorNodes:
//
//   - fleet counts the available nodes with more than MinChunkGB
//     unreserved, the nodes free right now. An app starts with it as its
//     cap, and refreshFleetCaps raises the cap towards it.
//   - free counts every available node as if it were free: the fleet an
//     idle cluster would give the app, and the ceiling of its cap
//     (App.freeFleet).
//
// A little node carries far less than ExecutorSpreadGB and a big node far
// more; on a uniform reference fleet with enough free nodes both sizes are
// ceil(input/ExecutorSpreadGB). A size with no node to count is
// Config.NodesFor.
//
// The walk follows bySpread, so it meets nodes largest share first and stops
// once both sizes are covered or capped: it costs the nodes it passes, not
// the fleet. free counts a superset of fleet's nodes in the same order, so
// it is never covered later than fleet, and the walk costs what sizing fleet
// alone would. Each size adds the same shares in the same order as sorting
// the shares of the nodes it counts (refFleetSizes), so both are
// bit-identical to that sort's.
func (c *Cluster) fleetSizes(inputGB float64) (fleet, free int) {
	const eps = 1e-9
	target, maxK := inputGB-eps, c.cfg.MaxExecutorNodes
	var covered, freeCovered float64
	// The first node counted is always taken (a fleet is at least one
	// executor); after it, a size stops once covered or capped.
	sizing, freeSizing := true, true
	for _, e := range c.bySpread {
		if !sizing && !freeSizing {
			break
		}
		if !e.node.Available() {
			continue
		}
		if freeSizing {
			freeCovered += e.share
			free++
			freeSizing = free < maxK && freeCovered < target
		}
		if sizing && e.node.FreeGB() > MinChunkGB {
			covered += e.share
			fleet++
			sizing = fleet < maxK && covered < target
		}
	}
	if fleet == 0 {
		fleet = c.cfg.NodesFor(inputGB)
	}
	if free == 0 {
		free = c.cfg.NodesFor(inputGB)
	}
	return fleet, free
}

// spreadEntry is one node of the fleet-sizing index and its spread share.
type spreadEntry struct {
	node  *Node
	share float64
}

// spreadShare is the input volume fleet-aware sizing credits to one executor
// on n: ExecutorSpreadGB scaled by n's allocatable memory relative to the
// reference node's.
func (c *Cluster) spreadShare(n *Node) float64 {
	return c.cfg.ExecutorSpreadGB * n.AllocatableGB() / ReferenceNode().AllocatableGB()
}

// indexSpread inserts a joining node into bySpread after every node whose
// share is equal or larger. A joiner has the highest node ID, so ties stay
// in node order.
func (c *Cluster) indexSpread(n *Node) {
	e := spreadEntry{n, c.spreadShare(n)}
	i := sort.Search(len(c.bySpread), func(i int) bool { return c.bySpread[i].share < e.share })
	c.bySpread = slices.Insert(c.bySpread, i, e)
}

// refreshFleetCaps raises the executor-fleet cap of every in-flight
// application as capacity frees. A cap is sized from the nodes free at
// admission, so without this a job admitted into a transiently packed fleet
// — a storm window, a burst of arrivals — would keep one or two executors
// for its whole lifetime and crawl on an otherwise idle cluster. The cap
// follows the nodes free right now (the fleet size of fleetSizes) but never
// passes the app's free-fleet size, the fleet an idle cluster would give it:
// while big nodes are busy the free nodes may be many little ones, and a cap
// sized from them would hold the app in the waiting set, walked by every
// placement pass, for slots it would never need on an idle cluster. The cap
// never shrinks (executors are never revoked by sizing). An app whose cap
// has reached its free-fleet size is skipped without a walk, so a run whose
// admissions all saw a free fleet — every closed-system run — pays one
// comparison per app and event.
func (c *Cluster) refreshFleetCaps() {
	for _, a := range c.active {
		if a.MaxExecutors >= a.freeFleet || a.RemainingGB <= 0 ||
			(a.State != StateReady && a.State != StateRunning) {
			continue
		}
		fleet, _ := c.fleetSizes(a.Job.InputGB)
		a.MaxExecutors = max(a.MaxExecutors, min(fleet, a.freeFleet))
	}
}

// AddForeign pins a foreign co-runner task (e.g. a PARSEC benchmark) to a
// node, typically before the run starts. A task added by a mid-run driver
// starts at the cluster's current clock, not at t=0. The CPU load and
// working set must be finite and non-negative and the work finite and
// positive; a bad value is an error and leaves the node untouched. A failed
// or removed node is an ErrNodeUnavailable error. A draining node takes the
// task, as it would take an OS process started outside YARN, and its
// decommission waits for the task to finish.
func (c *Cluster) AddForeign(nodeID int, name string, cpuLoad, memoryGB, workSec float64) (*ForeignTask, error) {
	if nodeID < 0 || nodeID >= len(c.nodes) {
		return nil, fmt.Errorf("cluster: node %d out of range", nodeID)
	}
	n := c.nodes[nodeID]
	if n.state == NodeFailed || n.state == NodeRemoved {
		return nil, fmt.Errorf("%w: node %d is %v", ErrNodeUnavailable, nodeID, n.state)
	}
	// Written as !(x >= 0) so NaN fails too: a negative working set would
	// credit the node free memory, and a NaN or infinite load or work would
	// leave the task without a finite deadline.
	if !(cpuLoad >= 0) || !(memoryGB >= 0) || !(workSec > 0) ||
		math.IsInf(cpuLoad, 1) || math.IsInf(memoryGB, 1) || math.IsInf(workSec, 1) {
		return nil, fmt.Errorf("cluster: invalid foreign task %q: CPU load %v, memory %v GB, work %v s", name, cpuLoad, memoryGB, workSec)
	}
	f := &ForeignTask{
		Name: name, Node: n, CPULoad: cpuLoad,
		MemoryGB: memoryGB, WorkSec: workSec, remaining: workSec,
		StartTime: c.now, DoneTime: -1,
		settledAt: c.now, deadline: math.Inf(1),
	}
	n.Foreign = append(n.Foreign, f)
	c.nodeChanged(n)
	c.foreign = append(c.foreign, f)
	return f, nil
}

// IsolatedTime is the closed-form execution time of a job run alone on the
// cluster with its full executor fleet and all node memory (the C_is of
// Equations 1 and 2).
func (c *Cluster) IsolatedTime(job workload.Job) float64 {
	k := c.cfg.NodesFor(job.InputGB)
	return startupSec + job.InputGB/(float64(k)*job.Bench.ScanRate)
}

// Spawn / Grow / Preempt validation errors.
var (
	ErrAppNotSchedulable = errors.New("cluster: app not in a schedulable state")
	ErrNoFreeMemory      = errors.New("cluster: insufficient unreserved memory on node")
	ErrExecutorCap       = errors.New("cluster: app already at its executor cap")
	ErrAlreadyOnNode     = errors.New("cluster: app already has an executor on node")
	ErrChunkTooSmall     = errors.New("cluster: data allocation below minimum chunk")
	ErrNodeUnavailable   = errors.New("cluster: node is draining, failed or removed")
	ErrShrinkReservation = errors.New("cluster: Grow cannot shrink the reservation")
	ErrNotPreemptible    = errors.New("cluster: victim's class is not preemptible")
	ErrNoPriority        = errors.New("cluster: preemptor does not outrank the victim")
)

// Spawn places a new executor of app on node with the given memory
// reservation (heap) and data allocation. The executor's true footprint
// comes from the workload ground truth for itemsGB; the reservation is what
// admission control charges against the node. A NaN or negative size is
// rejected before anything is touched.
//
// The returned executor belongs to the cluster, which recycles it once it
// is freed (app completion, a kill or a drain handoff). A scheduler may use
// it within the Schedule call that spawned it, and must keep no *Executor
// past that call: reach live executors through Node.Executors or
// App.Executors instead.
func (c *Cluster) Spawn(app *App, node *Node, reserveGB, itemsGB float64) (*Executor, error) {
	const eps = 1e-9
	// Written as !(x >= 0) so NaN fails too: every comparison below is false
	// for NaN, and a negative reservation would credit the node free memory.
	if !(reserveGB >= 0) || !(itemsGB >= 0) {
		return nil, fmt.Errorf("cluster: invalid executor size: reserve %v GB, items %v GB", reserveGB, itemsGB)
	}
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
	if itemsGB+eps < math.Min(MinChunkGB, app.RemainingGB) {
		return nil, fmt.Errorf("%w: %.3f GB", ErrChunkTooSmall, itemsGB)
	}
	if itemsGB > app.RemainingGB {
		itemsGB = app.RemainingGB
	}
	slotsLeft := app.MaxExecutors - len(app.Executors)
	fair := app.RemainingGB / float64(slotsLeft)
	need := app.Job.Bench.Footprint(itemsGB)
	e := c.newExecutor()
	*e = Executor{
		App:         app,
		ReservedGB:  reserveGB,
		ItemsGB:     itemsGB,
		NeedGB:      need,
		ActualGB:    resident(need, reserveGB),
		Demand:      app.Job.Bench.CPULoad,
		FairShareGB: fair,
		cacheEff:    cacheEfficiency(itemsGB, fair),
	}
	c.place(e, node)
	if cap(app.Executors) == 0 {
		// Sized for the widest cap refreshFleetCaps can raise it to, so the
		// list does not grow with the cap; only a node event that raises
		// the free-fleet size can make it grow.
		app.Executors = c.takeFleet(max(app.MaxExecutors, app.freeFleet))
	}
	app.Executors = append(app.Executors, e)
	if app.State == StateReady {
		app.State = StateRunning
		if app.StartTime < 0 {
			// First executor only: a respawn after an OOM kill must not
			// rewrite the app's recorded execution start (WaitSec feeds the
			// open-system queueing metrics).
			app.StartTime = c.now
		}
		app.startupUntil = c.now + startupSec
	}
	return e, nil
}

// resident caps an executor's resident memory at its heap plus off-heap
// overhead; the remainder of the demand spills to disk.
func resident(needGB, reserveGB float64) float64 {
	cap := reserveGB * (1 + offHeapFrac)
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
// with ErrShrinkReservation. A NaN or negative size is rejected before
// anything is touched.
//
// The items are clamped to the app's remaining work after the app settles,
// so they can fall to that settled value, below what the executor held: a
// grow asked for no more than the stored RemainingGB still shrinks the
// executor, and its cache factor, once settling leaves less work than that.
//
// Pass a live executor reached in the current call (through Node.Executors
// or App.Executors, or just returned by Spawn); a scheduler must keep no
// *Executor past the call that passed it. A freed executor is an error,
// but a kept pointer may by then hold another app's recycled executor.
func (c *Cluster) Grow(e *Executor, newReserveGB, newItemsGB float64) error {
	const eps = 1e-9
	if e.App == nil {
		return errFreedExecutor
	}
	// NaN passes every comparison below; see Spawn.
	if !(newReserveGB >= 0) || !(newItemsGB >= 0) {
		return fmt.Errorf("cluster: invalid executor size: reserve %v GB, items %v GB", newReserveGB, newItemsGB)
	}
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
	// allocation against the app's progress. (nodeChanged's dirty mark
	// re-touches the app through the node's rate pass.)
	c.settleApp(e.App)
	if newItemsGB > e.App.RemainingGB {
		newItemsGB = e.App.RemainingGB
	}
	e.ReservedGB = newReserveGB
	e.ItemsGB = newItemsGB
	e.cacheEff = cacheEfficiency(newItemsGB, e.FairShareGB)
	e.NeedGB = e.App.Job.Bench.Footprint(newItemsGB)
	e.ActualGB = resident(e.NeedGB, e.ReservedGB)
	c.nodeChanged(e.Node)
	return nil
}

// cacheEfficiency is the RDD-cache efficiency factor of an executor holding
// itemsGB of a fairGB fair share (see cacheGamma). Spawn and Grow store it
// on the executor; refCheckRates evaluates the formula afresh.
func cacheEfficiency(itemsGB, fairGB float64) float64 {
	eff := 1.0
	if fairGB > MinChunkGB && itemsGB < fairGB {
		eff = math.Pow(itemsGB/fairGB, cacheGamma)
		if eff < cacheFloor {
			eff = cacheFloor
		}
	}
	return eff
}

// removeExecutor detaches e from its node and app and releases it.
func (c *Cluster) removeExecutor(e *Executor) {
	c.unplace(e)
	a := e.App
	a.Executors = detach(a.Executors, e)
	c.release(e)
}

// place puts e on n's list, after the executors already there, and records
// the change (nodeChanged). A widenable arrival is news to the growth pass,
// so it marks n freed although n's reserved total rose.
func (c *Cluster) place(e *Executor, n *Node) {
	e.Node = n
	n.Executors = append(n.Executors, e)
	c.nodeChanged(n)
	if e.widenable() {
		c.markFreed(n)
	}
}

// unplace takes e off its node's list, keeping the order of the rest, and
// records the change (nodeChanged).
func (c *Cluster) unplace(e *Executor) {
	n := e.Node
	n.Executors = detach(n.Executors, e)
	c.nodeChanged(n)
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

// validate rejects a submission the engine cannot run: a time that is not
// finite and non-negative, a job with no benchmark or with an input that is
// not positive and finite, and a class weight that is negative or not finite
// (the rule workload.TagArrivals applies).
func (s Submission) validate() error {
	switch {
	case !(s.At >= 0) || math.IsInf(s.At, 0):
		return fmt.Errorf("invalid time %v", s.At)
	case s.Job.Bench == nil:
		return errors.New("job has no benchmark")
	case !(s.Job.InputGB > 0) || math.IsInf(s.Job.InputGB, 0):
		return fmt.Errorf("invalid input of %v GB", s.Job.InputGB)
	case !(s.Class.Weight >= 0) || math.IsInf(s.Class.Weight, 0):
		return fmt.Errorf("invalid class weight %v", s.Class.Weight)
	}
	return nil
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
// FCFS when no submission carries a class). A submission with a negative or
// non-finite time, no benchmark, an input that is not positive and finite,
// or a negative or non-finite class weight is an error naming its index, and
// so is a nil scheduler.
func (c *Cluster) RunOpen(subs []Submission, sched Scheduler) (*Result, error) {
	if sched == nil {
		return nil, errors.New("cluster: nil scheduler")
	}
	if len(subs) == 0 && len(c.foreign) == 0 {
		return nil, errors.New("cluster: nothing to run")
	}
	for i, s := range subs {
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("cluster: submission %d: %w", i, err)
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

	// The event cap guards against stalled-policy loops; it scales with the
	// workload so fleet-scale streams (millions of arrivals, each worth a
	// handful of admission/wake/completion events) do not trip it.
	limit := maxEvents
	if n := 8 * (len(subs) + len(c.foreign) + len(c.nodeEvents)); n > limit {
		limit = n
	}
	for ev := 0; ev < limit; ev++ {
		if err := c.applyNodeEvents(); err != nil {
			return nil, err
		}
		c.completeDrains()
		if err := c.admitArrivals(sched); err != nil {
			return nil, err
		}
		if c.allDone() {
			return c.result(), nil
		}
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

// admitArrivals moves every submission whose time has come into the
// cluster. All apps arriving at the same instant are registered (visible via
// Apps()) before any of their Prepare calls fire, preserving the
// pre-refactor closed-batch semantics where a policy's Prepare could inspect
// the whole batch; profiling plans are then gathered in arrival order.
func (c *Cluster) admitArrivals(sched Scheduler) error {
	const eps = 1e-9
	first := len(c.apps)
	for len(c.pending) > 0 && c.pending[0].At <= c.now+eps {
		c.register(c.pending[0])
		c.pending = c.pending[1:]
	}
	for _, app := range c.apps[first:] {
		if err := c.applyProfilePlan(sched, app, sched.Prepare(c, app)); err != nil {
			return err
		}
	}
	return nil
}

// applyProfilePlan validates one profiling plan and installs it on the app.
// An app with nothing to profile is ready at once; any other moves onto the
// coordinating node, where profiling runs share its capacity
// processor-style.
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
		return nil
	}
	app.State = StateProfiling
	c.profiling = append(c.profiling, app)
	// A new profiling app needs a deadline even when the share does not move
	// (refreshDeadlines only settles the set on a change).
	c.touchApp(app)
	return nil
}

// allDone is O(1): pending is a queue head and the done-counters are bumped
// at the single place each entity completes (advance, or failNode for
// foreign tasks lost with their node).
func (c *Cluster) allDone() bool {
	return len(c.pending) == 0 && c.doneApps == len(c.apps) && c.doneForeign == len(c.foreign)
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
	if sum <= coordinatorRateGBps || sum == 0 {
		return 1
	}
	return coordinatorRateGBps / sum
}

// recomputeRates refreshes executor/foreign rates, applying CPU contention,
// interference, paging, cache-efficiency and OOM kills. All capacity math
// reads the node's own spec, so heterogeneous fleets page, contend and
// speed-scale per node. Only dirty nodes are recomputed: a rate is a
// deterministic function of node-local state, so a node whose executors,
// foreign tasks and startup gates did not change since the last pass holds
// bit-identical rates already (every mutation marks its node, and startup
// expiries re-dirty through the wake heap). Dirty nodes are processed in
// node order — the order the full scan used — because OOM-kill charge-backs
// on different nodes can touch the same application.
func (c *Cluster) recomputeRates() {
	c.wakeExpiredNodes()
	// Re-read the word after every node and clear a node's bit only once
	// rateNode returns: enforceOOM re-marks the node being rated, which must
	// stay a no-op, and no mark made mid-pass is dropped (one in this word
	// or a later one is rated in this pass, one in an earlier word in the
	// next).
	for w := 0; w < len(c.dirty); w++ {
		for c.dirty[w] != 0 {
			id := w<<6 | bits.TrailingZeros64(c.dirty[w])
			c.rateNode(c.nodes[id])
			c.dirty[w] &^= 1 << (id & 63)
		}
	}
}

// rateNode recomputes every rate on one node and refreshes the node's
// wake-up: the earliest future startup expiry among its executors,
// re-registered on the wake heap when it changed so the node is re-dirtied
// the instant a zero rate comes alive.
func (c *Cluster) rateNode(n *Node) {
	// This node's rates are about to be reassigned: settle every resident
	// entity's progress under the OLD rates first (they held from the last
	// settle point up to this instant), and queue deadline refreshes — even
	// for entities already settled this iteration, since the new rates shift
	// their deadlines.
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
	sumD := n.CPUDemand()
	usable := n.Spec.UsableGB()
	speed := n.Spec.SpeedFactor
	overflow := n.ActualGB() - pressureWatermark*usable
	pageFactor := 1.0
	if overflow > 0 {
		pageFactor = 1 / (1 + pagePenalty*overflow/usable)
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
		interference := 1 / (1 + interferenceAlpha*(sumD-e.Demand))
		heapFactor := 1.0
		if e.ReservedGB > 0 && e.NeedGB > e.ReservedGB {
			shortfall := (e.NeedGB - e.ReservedGB) / e.ReservedGB
			heapFactor = 1 / (1 + heapPenalty*shortfall*shortfall)
			if heapFactor < heapFloor {
				heapFactor = heapFloor
			}
		}
		e.rate = e.App.Job.Bench.ScanRate * speed * cpuFactor * interference * pageFactor * e.cacheEff * heapFactor
	}
	for _, f := range n.Foreign {
		if f.done {
			continue
		}
		interference := 1 / (1 + interferenceAlpha*(sumD-f.CPULoad))
		f.rate = speed * cpuFactor * interference * pageFactor
	}
	if wake != n.wakeAt {
		n.wakeAt = wake
		if !math.IsInf(wake, 1) {
			c.wakes.push(wake, n)
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
	lost := oomReprocessFrac * victim.ItemsGB // read before the release poisons it
	c.removeExecutor(victim)
	before := app.RemainingGB
	app.RemainingGB += lost
	if app.RemainingGB > app.Job.InputGB {
		app.RemainingGB = app.Job.InputGB
	}
	// Degradation accounting: the actual post-clamp increase is the work
	// genuinely lost, the quantity the faults study's goodput is built on.
	app.LostWorkGB += app.RemainingGB - before
	c.totalLostGB += app.RemainingGB - before
	if app.RemainingGB > before {
		// RemainingGB caps every grow of the app, so its surviving
		// executors may now grow where their free memory has not risen.
		for _, e := range app.Executors {
			if e.widenable() {
				c.markFreed(e.Node)
			}
		}
	}
	if len(app.Executors) == 0 && app.State == StateRunning {
		app.State = StateReady
	}
}

// Preempt kills one executor on behalf of a higher-priority application,
// reusing the OOM/fail charge-back path: the victim's partially-processed
// items return to its app's remaining pool and the kill is counted in
// App.PreemptKills / Result.PreemptKills. The victim's class must be
// preemptible and strictly outranked by the preemptor's. The victim is
// freed and recycled: as for Grow, pass a live executor reached in the
// current call and keep no *Executor past it.
func (c *Cluster) Preempt(victim *Executor, by *App) error {
	if victim.App == nil {
		return errFreedExecutor
	}
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
		if !app.CanUse(n, c.now) {
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
			bestNode = -1 // a node already has the resources: kill nothing
			break
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
	killed := 0
	if bestNode >= 0 {
		for _, victim := range c.bestVictimBuf {
			if err := c.Preempt(victim, app); err != nil {
				break
			}
			killed++
		}
	}
	// Drop the scratch pointers, spare capacity included: the victims are
	// freed and recycled now.
	clear(c.victimBuf[:cap(c.victimBuf)])
	clear(c.bestVictimBuf[:cap(c.bestVictimBuf)])
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
	for len(c.wakes) > 0 {
		top := c.wakes[0]
		if top.n.wakeAt != top.at {
			c.wakes.pop()
			continue
		}
		if dt := top.at - c.now; dt < best {
			best = dt
		}
		break
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
	appsDone, profilingLeft := false, false
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
		}
	}
	if appsDone {
		c.active = slices.DeleteFunc(c.active, func(a *App) bool { return a.State == StateDone })
	}
	if profilingLeft {
		c.profiling = slices.DeleteFunc(c.profiling, func(a *App) bool { return a.State != StateProfiling })
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
		// Detach the whole fleet in one pass, in the order removing the
		// executors one by one would take, and hand the emptied list back.
		for _, e := range a.Executors {
			c.unplace(e)
			c.release(e)
		}
		c.releaseFleet(a)
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
	// The finished co-runner stops contending for CPU and its working set
	// leaves the node's memory totals, so the survivors speed up and the
	// node can un-page.
	c.nodeChanged(f.Node)
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
		Trace:        c.trace,
	}
}
