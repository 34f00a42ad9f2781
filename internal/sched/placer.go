package sched

import (
	"cmp"

	"moespark/internal/cluster"
)

// Placer scores candidate nodes for an executor placement. The dispatcher
// scores each node that passes its admission checks (availability, memory,
// CPU, per-node app caps) and attempts placements in descending score order;
// ties keep node-scan order. On a NewPriority copy the score ranks nodes
// only within a class tier (see placeApp). A nil Placer is first fit:
// candidates in node-scan order, unscored, which the dispatcher spawns on as
// its walk meets them.
type Placer interface {
	// Score rates placing an executor of app on n; higher is better. The
	// score is consulted only among nodes that already passed admission.
	Score(app *cluster.App, n *cluster.Node) float64
}

// bestFitMemory prefers the candidate with the least free memory — classic
// best-fit bin packing, which keeps big contiguous holes open for
// memory-hungry applications on heterogeneous fleets.
type bestFitMemory struct{}

// NewBestFitMemory returns the tightest-fit-first placement strategy.
func NewBestFitMemory() Placer { return bestFitMemory{} }

func (bestFitMemory) Score(_ *cluster.App, n *cluster.Node) float64 {
	return -n.FreeGB()
}

// speedAware prefers fast, idle machines: score is the node's speed factor
// discounted by its current utilization (CPU demand relative to the node's
// own capacity, so a half-loaded 32-core node outranks an idle 8-core one
// with the same speed), landing executors on the hardware that will process
// their items quickest. On a homogeneous idle fleet it degenerates to first
// fit.
type speedAware struct{}

// NewSpeedAware returns the speed-aware placement strategy for
// heterogeneous fleets.
func NewSpeedAware() Placer { return speedAware{} }

func (speedAware) Score(_ *cluster.App, n *cluster.Node) float64 {
	return n.Spec.SpeedFactor / (1 + n.CPUDemand()/n.CPUCapacity())
}

// rackSpread trades failure-domain diversity against locality: the dominant
// term pushes an application's executors onto racks where it has none yet —
// so a rack-correlated storm (RackStormEvents) can take out at most a
// handful of any app's executors — while the locality term breaks ties
// among equally-diverse racks in favour of fast, idle hardware, exactly the
// speedAware score, discounted so it can reorder candidates only within one
// diversity level. Nodes without topology labels (empty Rack) are each
// their own domain: the spread term sees no co-racked executors and the
// placer degenerates to a damped speed-aware ordering.
type rackSpread struct {
	// locality in [0, 1) scales the speed-aware tie-break; it must stay
	// below 1 so one rack-mate always outweighs any hardware advantage.
	locality float64
}

// NewRackSpread returns the failure-domain-aware placement strategy with
// the default locality weight.
func NewRackSpread() Placer { return rackSpread{locality: 0.25} }

func (p rackSpread) Score(app *cluster.App, n *cluster.Node) float64 {
	score := 0.0
	if n.Spec.Rack != "" {
		for _, e := range app.Executors {
			if e.Node.Spec.Rack == n.Spec.Rack {
				score--
			}
		}
	}
	return score + p.locality*n.Spec.SpeedFactor/(1+n.CPUDemand()/n.CPUCapacity())
}

// candidate is one admissible node of a placement with its rank: its tier
// (on a NewPriority copy, the executors it hosts of a strictly higher class
// weight; otherwise 0) and the Placer's score.
type candidate struct {
	node  *cluster.Node
	tier  int
	score float64
}

// compareCandidates is the placement order: lower tier first, then higher
// score. placeApp sorts stably, so equal tier and score keep node-scan order.
func compareCandidates(a, b candidate) int {
	if a.tier != b.tier {
		return cmp.Compare(a.tier, b.tier)
	}
	return cmp.Compare(b.score, a.score)
}
