package netsim

import (
	"repro/internal/addr"
)

// Accessors and address churn no run path uses: the netsim tests
// inspect nodes, links and queues through them.

// Nodes returns all nodes in creation order. The slice is a copy.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// RemoveAddr releases ownership of an address (care-of address churn).
func (nd *Node) RemoveAddr(ip addr.IP) {
	for i, a := range nd.addrs {
		if a == ip {
			nd.addrs = append(nd.addrs[:i], nd.addrs[i+1:]...)
			break
		}
	}
	if nd.net.byAddr[ip] == nd {
		delete(nd.net.byAddr, ip)
	}
}

// Links returns the node's attached links. The slice is a copy.
func (nd *Node) Links() []*Link {
	out := make([]*Link, len(nd.links))
	copy(out, nd.links)
	return out
}

// QueueDepth returns the packets awaiting transmission from n.
func (l *Link) QueueDepth(n *Node) int {
	if n == l.a {
		return l.dirs[0].queued
	}
	if n == l.b {
		return l.dirs[1].queued
	}
	return 0
}
