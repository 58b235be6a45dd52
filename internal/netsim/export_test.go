package netsim

// Accessors no run path uses: the netsim tests inspect nodes and links
// through them.

// Nodes returns all nodes in creation order. The slice is a copy.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// Links returns the node's attached links. The slice is a copy.
func (nd *Node) Links() []*Link {
	out := make([]*Link, len(nd.links))
	copy(out, nd.links)
	return out
}
