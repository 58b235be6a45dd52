package mobileip

import (
	"repro/internal/addr"
	"repro/internal/netsim"
)

// Accessors no run path uses: the Mobile IP tests inspect agents and
// nodes through them.

// Node returns the underlying network node.
func (ha *HomeAgent) Node() *netsim.Node { return ha.node }

// Node returns the underlying network node.
func (mn *MobileNode) Node() *netsim.Node { return mn.node }

// Home returns the permanent home address.
func (mn *MobileNode) Home() addr.IP { return mn.home }
