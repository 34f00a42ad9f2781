package sched

import (
	"moespark/internal/cluster"
)

// Placer scores candidate nodes for an executor placement. The dispatcher
// scores each node that passes its admission checks (availability, memory,
// CPU, per-node app caps) and attempts placements in descending score order;
// ties keep node-scan order. A nil Placer is first fit: candidates in
// node-scan order, unscored. Under first fit and under NewClassAware(nil),
// whose scores never exceed 0, the dispatcher spawns on each zero-score node
// as its walk meets it, stops once the fleet is full, and orders only the
// lower-scored candidates; any other Placer has every candidate gathered and
// ordered. Either way placements follow that order.
type Placer interface {
	// Score rates placing an executor of app on n; higher is better. The
	// score is consulted only among nodes that already passed admission.
	Score(c *cluster.Cluster, app *cluster.App, n *cluster.Node) float64
}

// bestFitMemory prefers the candidate with the least free memory — classic
// best-fit bin packing, which keeps big contiguous holes open for
// memory-hungry applications on heterogeneous fleets.
type bestFitMemory struct{}

// NewBestFitMemory returns the tightest-fit-first placement strategy.
func NewBestFitMemory() Placer { return bestFitMemory{} }

func (bestFitMemory) Score(_ *cluster.Cluster, _ *cluster.App, n *cluster.Node) float64 {
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

func (speedAware) Score(_ *cluster.Cluster, _ *cluster.App, n *cluster.Node) float64 {
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

func (p rackSpread) Score(_ *cluster.Cluster, app *cluster.App, n *cluster.Node) float64 {
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

// scoredNodes is the dispatcher's reusable candidate buffer: nodes plus their
// scores, on parallel slices so nothing allocates once the buffers are warm.
// It holds every candidate of a scored placer and only the penalised ones
// under a first-fit order. heapify turns it into a max-heap and pop hands
// the candidates out best-first — score descending, ties in gather
// (node-scan) order — so a placement that fills its fleet after a few pops
// never orders the candidates it does not reach.
type scoredNodes struct {
	nodes  []*cluster.Node
	scores []float64
	order  []int // gather order, the tie-break
}

func (s *scoredNodes) reset() {
	s.nodes = s.nodes[:0]
	s.scores = s.scores[:0]
	s.order = s.order[:0]
}

func (s *scoredNodes) add(n *cluster.Node, score float64) {
	s.nodes = append(s.nodes, n)
	s.scores = append(s.scores, score)
	s.order = append(s.order, len(s.order))
}

// better is the heap order: higher score first, then earlier gather order.
// Gather orders are distinct, so it is a strict total order and each pop
// returns the candidate a stable descending sort would have put next.
func (s *scoredNodes) better(i, j int) bool {
	if s.scores[i] != s.scores[j] {
		return s.scores[i] > s.scores[j]
	}
	return s.order[i] < s.order[j]
}

func (s *scoredNodes) swap(i, j int) {
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
	s.scores[i], s.scores[j] = s.scores[j], s.scores[i]
	s.order[i], s.order[j] = s.order[j], s.order[i]
}

// heapify arranges the candidates as a max-heap under better, in linear time.
func (s *scoredNodes) heapify() {
	for i := len(s.nodes)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// pop removes and returns the best candidate left in a heapified buffer; the
// buffer must not be empty.
func (s *scoredNodes) pop() *cluster.Node {
	best, last := s.nodes[0], len(s.nodes)-1
	s.swap(0, last)
	s.nodes, s.scores, s.order = s.nodes[:last], s.scores[:last], s.order[:last]
	s.siftDown(0)
	return best
}

// siftDown moves the candidate at i down until neither child is better.
func (s *scoredNodes) siftDown(i int) {
	n := len(s.nodes)
	for {
		best, l := i, 2*i+1
		if l >= n {
			return
		}
		if s.better(l, best) {
			best = l
		}
		if r := l + 1; r < n && s.better(r, best) {
			best = r
		}
		if best == i {
			return
		}
		s.swap(i, best)
		i = best
	}
}
