package cluster

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
)

// This file is the node index placement reads instead of scanning the whole
// fleet on every scheduling event. It holds two node sets, bitsets laid out
// like the dirty set (bit ID%64 of word ID/64):
//
//   - open: available nodes with more than MinChunkGB unreserved. Every other
//     node fails App.CanUse or the dispatcher's minimum-free-memory rule, so
//     a placement walk over the open set meets exactly the candidates a walk
//     over every node accepts, in the same node order.
//   - growable: nodes hosting a shrunken executor (Node.shrunk > 0) with more
//     than GrowMinFreeGB unreserved: the only nodes where the dispatcher's
//     grow pass widens an allocation.
//
// Both are functions of node-local state: the lifecycle state, the stored
// reservation total and the shrunken-executor count. Every touch point that
// changes one of them marks the node stale: markDirty does so for all its
// callers, which cover every recount and every shrunken-count change, and a
// drain marks its node directly. A decommission needs no mark (the drain
// already took the node out of the open set, and an empty node has nothing
// to grow). The sets are brought up to date lazily: each query first
// re-evaluates the stale nodes alone (syncNodeIndex), so a burst of
// mutations between two queries costs one evaluation per touched node, and a
// run whose policy never queries pays only the marks. refOpenNodes and
// refGrowable in engine_ref.go are the full-scan twins the differential
// tests compare with on every event.

// nodeBit returns the word and bit of n in the node bitsets, growing every
// bitset by a word when a joining node's ID opens one.
func (c *Cluster) nodeBit(n *Node) (int, uint64) {
	w := n.ID >> 6
	for w >= len(c.dirty) {
		c.dirty = append(c.dirty, 0)
		c.stale = append(c.stale, 0)
		c.open = append(c.open, 0)
		c.growable = append(c.growable, 0)
	}
	return w, 1 << (n.ID & 63)
}

// markStale queues n for re-evaluation in the node index without dirtying
// its rates: for a change that moves no rate, such as a drain.
func (c *Cluster) markStale(n *Node) {
	w, bit := c.nodeBit(n)
	c.stale[w] |= bit
}

// syncNodeIndex re-evaluates every stale node's membership of the open and
// growable sets and clears the stale set.
func (c *Cluster) syncNodeIndex() {
	for w, word := range c.stale {
		if word == 0 {
			continue
		}
		open, growable := c.open[w]&^word, c.growable[w]&^word
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			n := c.nodes[w<<6|b]
			free := n.FreeGB()
			if n.Available() && free > MinChunkGB {
				open |= 1 << b
			}
			if n.shrunk > 0 && free > GrowMinFreeGB {
				growable |= 1 << b
			}
		}
		c.open[w], c.growable[w], c.stale[w] = open, growable, 0
	}
}

// OpenNodes iterates, in node order, over the available nodes with more than
// MinChunkGB unreserved: the nodes a placement can still use. The set is
// brought up to date when the iteration starts. A spawn on the node just
// yielded may take it out of the set; that is seen by the next iteration,
// and it moves no other node.
func (c *Cluster) OpenNodes() iter.Seq[*Node] {
	return func(yield func(*Node) bool) {
		c.syncNodeIndex()
		for w, word := range c.open {
			for ; word != 0; word &= word - 1 {
				if !yield(c.nodes[w<<6|bits.TrailingZeros64(word)]) {
					return
				}
			}
		}
	}
}

// AppendGrowable appends to buf every shrunken executor (ItemsGB <
// FairShareGB) on a node with more than GrowMinFreeGB unreserved, and
// returns the extended slice. The executors come in the order a walk of
// ActiveApps' executors meets them: app submission order, then App.Executors
// order. They are gathered from the growable nodes and sorted by app ID,
// which is submission order; the executors of an app with several are then
// rewritten in the order of the app's own list.
func (c *Cluster) AppendGrowable(buf []*Executor) []*Executor {
	c.syncNodeIndex()
	start := len(buf)
	for w, word := range c.growable {
		for ; word != 0; word &= word - 1 {
			for _, e := range c.nodes[w<<6|bits.TrailingZeros64(word)].Executors {
				if e.ItemsGB < e.FairShareGB {
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
				if e.ItemsGB < e.FairShareGB && c.growable[e.Node.ID>>6]&(1<<(e.Node.ID&63)) != 0 {
					found[i] = e
					i++
				}
			}
		}
		i = j
	}
	return buf
}
