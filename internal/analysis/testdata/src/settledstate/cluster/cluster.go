// Package cluster is a settledstate fixture: it fakes the engine types
// (App, ForeignTask, Node in a package named cluster) so the analyzer's
// field table applies, then writes their settle-discipline fields from
// both allowed touch points and stray helpers.
package cluster

// App mirrors the engine's settle-discipline fields.
type App struct {
	ID          int
	RemainingGB float64
	profileLeft float64
	settledAt   float64
	deadline    float64
	touched     bool
}

// ForeignTask mirrors the engine's foreign-load bookkeeping.
type ForeignTask struct {
	Name      string
	remaining float64
	settledAt float64
	deadline  float64
	touched   bool
	done      bool
}

// Node mirrors the engine's wake bookkeeping and stored totals.
type Node struct {
	ID         int
	wakeAt     float64
	Reserved   []float64
	reservedGB float64
	actualGB   float64
	cpuDemand  float64
}

// Cluster is the owning engine stand-in.
type Cluster struct {
	now  float64
	apps []*App
}

// settleApp is an allowed touch point: the whole point of the discipline
// is that settlement happens here.
func (c *Cluster) settleApp(a *App, rate float64) {
	a.RemainingGB -= rate * (c.now - a.settledAt)
	a.settledAt = c.now
	a.touched = true
}

// settleForeign is also on the allowlist.
func (c *Cluster) settleForeign(f *ForeignTask) {
	f.remaining -= c.now - f.settledAt
	f.settledAt = c.now
}

// markDirty is an allowed touch point for node wake bookkeeping.
func (c *Cluster) markDirty(n *Node, at float64) {
	n.wakeAt = at
}

// evilSettle duplicates settleApp's body outside the allowlist: exactly
// the bug class the analyzer exists to catch.
func (c *Cluster) evilSettle(a *App, rate float64) {
	a.RemainingGB -= rate * (c.now - a.settledAt) // want `write to settle-discipline field App.RemainingGB`
	a.settledAt = c.now                           // want `write to settle-discipline field App.settledAt`
}

// drainForeign decrements remaining outside the allowlist.
func drainForeign(f *ForeignTask, amount float64) {
	f.remaining -= amount // want `write to settle-discipline field ForeignTask.remaining`
	if f.remaining <= 0 {
		f.done = true // want `write to settle-discipline field ForeignTask.done`
	}
}

// pokeNode writes wakeAt outside the allowlist.
func pokeNode(n *Node) {
	n.wakeAt = 0 // want `write to settle-discipline field Node.wakeAt`
}

// readOnly only reads settled fields: reads are always fine.
func readOnly(a *App, f *ForeignTask) float64 {
	if f.done {
		return a.RemainingGB
	}
	return a.deadline - a.settledAt
}

// trailingAllow shows the trailing-comment annotation form.
func trailingAllow(a *App) {
	a.deadline = 0 //moevet:allow settledstate test harness resets the deadline between scenarios
}

// rateNode is the engine's per-node rate pass: allowed to place the wake
// time it derives.
func (c *Cluster) rateNode(n *Node, gate float64) {
	n.wakeAt = c.now + gate
}

// wakeShortcut rewrites a node's wake time outside the touch points: the
// stray writer that would leave a stale wake-heap entry.
func wakeShortcut(n *Node, at float64) {
	n.wakeAt = at // want `write to settle-discipline field Node.wakeAt`
}

// nodeChanged is the one allowed writer of the stored node totals.
func (c *Cluster) nodeChanged(n *Node) {
	var sum float64
	for _, r := range n.Reserved {
		sum += r
	}
	n.reservedGB, n.actualGB, n.cpuDemand = sum, sum, 0
}

// spawnShortcut adjusts the stored totals in place instead of calling
// nodeChanged: the stray writer that lets a total drift from its recount.
func spawnShortcut(n *Node, reserveGB float64) {
	n.Reserved = append(n.Reserved, reserveGB)
	n.reservedGB += reserveGB // want `write to Node.reservedGB outside nodeChanged`
}

// failNode is a touch point that rewrites a total itself: a touch point may
// write every other settled field, but not the totals, which would change
// without marking the node.
func (c *Cluster) failNode(n *Node, f *ForeignTask) {
	f.done = true
	n.cpuDemand = 0 // want `write to Node.cpuDemand outside nodeChanged`
}
