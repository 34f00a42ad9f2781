package cluster

// Files named eventindex.go are the deadline-index home and are exempt
// wholesale: these writes produce no diagnostics.
func (c *Cluster) reindex(a *App, at float64) {
	a.deadline = at
	a.touched = false
}

// The exemption stops at the fields with a sole writer.
func (c *Cluster) reindexNode(n *Node) {
	n.actualGB = 0 // want `write to Node.actualGB outside nodeChanged`
}
