package sched

import (
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
// weight; otherwise 0), the Placer's score and its gather (node-scan) order.
type candidate struct {
	node  *cluster.Node
	tier  int
	score float64
	order int
}

// before is the placement order: lower tier first, then higher score, then
// earlier gather order. Gather orders are distinct, so it is a strict total
// order and each pop returns the candidate a stable sort by tier, then
// descending score, would have put next.
func (a *candidate) before(b *candidate) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.score != b.score {
		return a.score > b.score
	}
	return a.order < b.order
}

// scoredNodes is the dispatcher's reusable candidate heap, so nothing
// allocates once it is warm. It holds every candidate of a scored placer
// and, under first fit, only those above tier 0. heapify orders it as a
// heap under before, and pop hands the candidates out best-first, so a
// placement that fills its fleet after a few pops never orders the
// candidates it does not reach.
type scoredNodes []candidate

func (s *scoredNodes) reset() { *s = (*s)[:0] }

func (s *scoredNodes) add(n *cluster.Node, tier int, score float64) {
	*s = append(*s, candidate{node: n, tier: tier, score: score, order: len(*s)})
}

// heapify arranges the candidates as a heap under before, in linear time.
func (s scoredNodes) heapify() {
	for i := len(s)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// pop removes and returns the best candidate left in a heapified buffer; the
// buffer must not be empty.
func (s *scoredNodes) pop() *cluster.Node {
	h := *s
	best, last := h[0].node, len(h)-1
	h[0] = h[last]
	*s = h[:last]
	s.siftDown(0)
	return best
}

// siftDown moves the candidate at i down until neither child comes before
// it.
func (s scoredNodes) siftDown(i int) {
	n := len(s)
	for {
		best, l := i, 2*i+1
		if l >= n {
			return
		}
		if s[l].before(&s[best]) {
			best = l
		}
		if r := l + 1; r < n && s[r].before(&s[best]) {
			best = r
		}
		if best == i {
			return
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
}
