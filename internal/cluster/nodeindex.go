package cluster

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
)

// This file is the node index placement and the growth pass read instead of
// scanning the whole fleet on every scheduling event, and nodeChanged, which
// keeps it current. It holds two node sets, bitsets laid out like the dirty
// set (bit ID%64 of word ID/64):
//
//   - open: available nodes with more than MinChunkGB unreserved. Every other
//     node fails App.CanUse or the dispatcher's minimum-free-memory rule, so
//     a placement walk over the open set meets exactly the candidates a walk
//     over every node accepts, in the same node order. nodeChanged and a
//     drain re-evaluate a node's bit, so the set is always current; a
//     decommission needs nothing, as the drain took the node out.
//   - freed: nodes where the grow decision of a widenable executor (see
//     Executor.widenable) can have changed since the last growth query.
//     Three things mark a node: a fall in its reserved total (nodeChanged),
//     the arrival of a widenable executor (place: Spawn or a migration
//     target), and a charge-back, after which reclaimExecutor marks the
//     nodes of the app's surviving widenable executors because it raises
//     the RemainingGB that caps their grows. TakeGrowable walks the set and
//     clears it.
//
// refOpenNodes and refGrowable in engine_ref_test.go are the full-scan twins
// the differential tests compare with on every event.

// nodeBit returns the word and bit of n in the node bitsets, growing every
// bitset by a word when a joining node's ID opens one.
func (c *Cluster) nodeBit(n *Node) (int, uint64) {
	w := n.ID >> 6
	for w >= len(c.dirty) {
		c.dirty = append(c.dirty, 0)
		c.open = append(c.open, 0)
		c.freed = append(c.freed, 0)
	}
	return w, 1 << (n.ID & 63)
}

// nodeChanged records a change to n's executors, their sizes, its foreign
// tasks or its lifecycle state. It is the one writer of n's stored totals:
// each sums the executors and then the foreign tasks in list order, so it is
// bit-identical to summing on demand, and a finished co-runner leaves all
// three. It marks n dirty, re-evaluates its open bit, and marks it freed
// when its reserved total fell, the only way its free memory can rise.
func (c *Cluster) nodeChanged(n *Node) {
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
	if reserved < n.reservedGB {
		c.markFreed(n)
	}
	n.reservedGB, n.actualGB, n.cpuDemand = reserved, actual, cpu
	c.markDirty(n)
	c.refreshOpen(n)
}

// refreshOpen puts n in the open set when it is available with more than
// MinChunkGB unreserved, and takes it out otherwise.
func (c *Cluster) refreshOpen(n *Node) {
	w, bit := c.nodeBit(n)
	if n.Available() && n.FreeGB() > MinChunkGB {
		c.open[w] |= bit
	} else {
		c.open[w] &^= bit
	}
}

// markFreed queues n for the next growth query (see TakeGrowable).
func (c *Cluster) markFreed(n *Node) {
	w, bit := c.nodeBit(n)
	c.freed[w] |= bit
}

// OpenNodes iterates, in node order, over the available nodes with more than
// MinChunkGB unreserved: the nodes a placement can still use. A spawn on the
// node just yielded may take it out of the set; that is seen by the next
// iteration, and it moves no other node.
func (c *Cluster) OpenNodes() iter.Seq[*Node] {
	return func(yield func(*Node) bool) {
		for w, word := range c.open {
			for ; word != 0; word &= word - 1 {
				if !yield(c.nodes[w<<6|bits.TrailingZeros64(word)]) {
					return
				}
			}
		}
	}
}

// growsOn reports whether n is a freed node where the growth pass may widen
// an executor: one with more than GrowMinFreeGB unreserved.
func (c *Cluster) growsOn(n *Node) bool {
	return c.freed[n.ID>>6]&(1<<(n.ID&63)) != 0 && n.FreeGB() > GrowMinFreeGB
}

// TakeGrowable appends to buf the widenable executors (ItemsGB*GrowChurn <
// FairShareGB) whose grow decision can have changed since the previous call,
// and returns the extended slice. It lists those on freed nodes with more
// than GrowMinFreeGB unreserved, and clears the freed set.
//
// The contract is the dispatcher's: a growth pass grows an executor to
// min(clampItems(est.Items((ReservedGB+free)/margin), RemainingGB),
// FairShareGB) when that exceeds ItemsGB*GrowChurn. That can only turn true
// when the node's free memory or the app's remaining work rises: the
// estimate never changes after Prepare, Items is monotone in its budget, a
// grow leaves ReservedGB+free unchanged, and the stored RemainingGB only
// falls between charge-backs. Each such rise marks the node freed, and so
// does a widenable arrival, so an executor this call leaves out was decided
// on by the previous growth pass and would be skipped again. A Grow whose
// clamp to the remaining work leaves its executor widenable needs no mark:
// its items then equal RemainingGB, which caps every later target until a
// charge-back marks the node. The call consumes the set, so the growth pass
// must stay its only caller: a second caller would take the news the pass
// needs. refGrowable is the superset it must stay within.
//
// The executors come in the order a walk of ActiveApps' executors meets
// them: app submission order, then App.Executors order. They are gathered
// from the nodes and sorted by app ID, which is submission order; the
// executors of an app with several are then rewritten in the order of the
// app's own list.
func (c *Cluster) TakeGrowable(buf []*Executor) []*Executor {
	start := len(buf)
	for w, word := range c.freed {
		for ; word != 0; word &= word - 1 {
			n := c.nodes[w<<6|bits.TrailingZeros64(word)]
			if !c.growsOn(n) {
				continue
			}
			for _, e := range n.Executors {
				if e.widenable() {
					buf = append(buf, e)
				}
			}
		}
	}
	found := buf[start:]
	slices.SortFunc(found, func(a, b *Executor) int { return cmp.Compare(a.App.ID, b.App.ID) })
	for i := 0; i < len(found); {
		a, j := found[i].App, i+1
		for j < len(found) && found[j].App == a {
			j++
		}
		if j-i > 1 {
			for _, e := range a.Executors {
				if e.widenable() && c.growsOn(e.Node) {
					found[i] = e
					i++
				}
			}
		}
		i = j
	}
	clear(c.freed)
	return buf
}
