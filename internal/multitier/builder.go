package multitier

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// FabricConfig tunes fabric construction.
type FabricConfig struct {
	// WiredDelay is the per-hop delay of the hierarchy links.
	WiredDelay time.Duration
	// WiredRateBps bounds hierarchy link throughput (0 = infinite).
	WiredRateBps float64
	// QueueLimit bounds hierarchy link queues (0 = unlimited).
	QueueLimit int
	// StationConfigFor overrides per-tier station configuration; nil
	// takes DefaultStationConfig.
	StationConfigFor func(tier topology.Tier) StationConfig
}

// DefaultFabricConfig uses 2 ms hierarchy hops.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{WiredDelay: 2 * time.Millisecond}
}

// Fabric is a topology realised as connected stations.
type Fabric struct {
	Top      *topology.Topology
	Dir      *Directory
	Stations map[topology.CellID]*Station
	Roots    []*Station
}

// BuildFabric creates one station per cell, wires parent/child links, and
// turns every root into a Mobile IP anchor. External (Internet-side)
// wiring is the caller's responsibility: connect each root's node to the
// core and configure the router returned by Station.MakeAnchor — here
// exposed via Root.External (the anchor router is created in this
// builder). stats must be non-nil; NewStats(nil) gives a private
// registry.
func BuildFabric(net *netsim.Network, top *topology.Topology, cfg FabricConfig,
	dir *Directory, stats *Stats) (*Fabric, error) {

	cfgFor := cfg.StationConfigFor
	if cfgFor == nil {
		cfgFor = DefaultStationConfig
	}
	f := &Fabric{
		Top:      top,
		Dir:      dir,
		Stations: make(map[topology.CellID]*Station, len(top.Cells)),
	}
	for _, cell := range top.Cells {
		node := net.NewNode(cell.Name)
		st := NewStation(node, cell, top, cfgFor(cell.Tier), dir, stats)
		f.Stations[cell.ID] = st
	}
	linkCfg := netsim.LinkConfig{
		Delay:      cfg.WiredDelay,
		RateBps:    cfg.WiredRateBps,
		QueueLimit: cfg.QueueLimit,
	}
	for _, cell := range top.Cells {
		if cell.Parent == topology.NoCell {
			continue
		}
		parent := f.Stations[cell.Parent]
		parent.ConnectChild(f.Stations[cell.ID], linkCfg)
	}
	for _, cell := range top.CellsOfTier(topology.TierRoot) {
		st := f.Stations[cell.ID]
		anchor, err := cell.Prefix.Nth(2)
		if err != nil {
			return nil, fmt.Errorf("anchor address for %s: %w", cell.Name, err)
		}
		st.MakeAnchor(anchor)
		f.Roots = append(f.Roots, st)
	}
	return f, nil
}

// Station returns the station serving cell, or nil.
func (f *Fabric) Station(cell topology.CellID) *Station { return f.Stations[cell] }

// External returns the anchor router of a root station (nil for
// non-roots).
func (f *Fabric) External(root topology.CellID) *netsim.StaticRouter {
	st := f.Stations[root]
	if st == nil {
		return nil
	}
	return st.external
}

// TotalTableRecords sums live records across all stations — the E3 state
// metric.
func (f *Fabric) TotalTableRecords() int {
	n := 0
	for _, st := range f.Stations {
		n += st.tables.Micro.Len()
		if st.tables.Macro != nil {
			n += st.tables.Macro.Len()
		}
	}
	return n
}

// TierUtilization summarises per-cell peak channel occupancy for one
// tier.
type TierUtilization struct {
	// Cells is the number of stations on the tier.
	Cells int
	// MeanPeak and MaxPeak aggregate the per-cell peak occupancies: a
	// high MaxPeak with a low MeanPeak means load concentrated on a few
	// hot cells — the dimensioning planner's headroom factor exists for
	// exactly that skew.
	MeanPeak, MaxPeak float64
}

// Utilization rolls per-cell peak occupancy up per tier, walking cells
// in id order so the result is deterministic.
func (f *Fabric) Utilization() map[topology.Tier]TierUtilization {
	out := make(map[topology.Tier]TierUtilization, 4)
	for _, cell := range f.Top.Cells {
		st := f.Stations[cell.ID]
		if st == nil {
			continue
		}
		u := out[cell.Tier]
		u.Cells++
		peak := st.PeakUtilization()
		u.MeanPeak += peak
		if peak > u.MaxPeak {
			u.MaxPeak = peak
		}
		out[cell.Tier] = u
	}
	for tier, u := range out {
		if u.Cells > 0 {
			u.MeanPeak /= float64(u.Cells)
			out[tier] = u
		}
	}
	return out
}
