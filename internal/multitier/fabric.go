package multitier

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Errors returned by directory lookups.
var (
	ErrUnknownMN   = errors.New("multitier: unknown mobile node")
	ErrUnknownCell = errors.New("multitier: no station for cell")
)

// Profile is the per-MN directory entry: identity and service demand. It
// stands in for the AAA/subscriber database a deployment would consult.
type Profile struct {
	// Home is the MN's permanent address.
	Home addr.IP
	// HomeAgent is the address of the MN's Mobile IP home agent.
	HomeAgent addr.IP
	// DemandBPS is the bandwidth the MN's flows need (admission factor).
	DemandBPS float64
	// Class is the MN's dominant traffic class (the most delay-sensitive
	// flow of its mix). Admission records it on granted sessions so the
	// degradation ladder can rank preemption victims; zero means
	// unclassified and opts the MN out of class-aware degradation.
	Class packet.Class
}

// Directory is the shared registry the stations, RSMCs and root anchors
// consult: MN profiles, the per-domain authenticators, and the station
// serving each cell.
type Directory struct {
	profiles map[addr.IP]*Profile
	stations []*Station                  // by cell id (dense from 0); nil = no station
	auths    map[int]*auth.Authenticator // by domain id
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		profiles: make(map[addr.IP]*Profile),
		auths:    make(map[int]*auth.Authenticator),
	}
}

// AddProfile registers an MN.
func (d *Directory) AddProfile(p *Profile) { d.profiles[p.Home] = p }

// Profile returns the MN's entry.
func (d *Directory) Profile(mn addr.IP) (*Profile, error) {
	p, ok := d.profiles[mn]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMN, mn)
	}
	return p, nil
}

// registerStation records the station serving a cell (called by
// NewStation).
func (d *Directory) registerStation(s *Station) {
	id := int(s.Cell().ID)
	if id >= len(d.stations) {
		d.stations = append(d.stations, make([]*Station, id+1-len(d.stations))...)
	}
	d.stations[id] = s
}

// StationFor returns the station serving cell.
func (d *Directory) StationFor(cell topology.CellID) (*Station, error) {
	if cell >= 0 && int(cell) < len(d.stations) && d.stations[cell] != nil {
		return d.stations[cell], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownCell, cell)
}

// SetDomainAuth installs the authenticator shared by a domain's RSMC and
// its subscribers.
func (d *Directory) SetDomainAuth(domain int, a *auth.Authenticator) { d.auths[domain] = a }

// DomainAuth returns the domain's authenticator, nil when authentication
// is disabled for the domain.
func (d *Directory) DomainAuth(domain int) *auth.Authenticator { return d.auths[domain] }

// ErrFaulted reports an operation refused because the responsible
// station is down under fault injection. Handoff admission counts these
// as shed_fault, distinct from policy/auth sheds.
var ErrFaulted = errors.New("multitier: station faulted")

// Controller is the RSMC hook a domain-head station consults (§4): it
// authenticates arriving MNs and tracks domain membership. Implemented in
// the rsmc package; defined here to avoid an import cycle.
type Controller interface {
	// Authorize admits or refuses an MN joining the domain. The token
	// and nonce come from the handoff request.
	Authorize(mn addr.IP, nonce uint64, token []byte) error
	// OnAttach is told when an MN becomes served inside the domain.
	OnAttach(mn addr.IP)
	// OnDetach is told when an MN leaves the domain.
	OnDetach(mn addr.IP)
}

// StationConfig tunes station behaviour.
type StationConfig struct {
	// TableTTL is the cell-table record lifetime (§3.1's
	// "time-limitation").
	TableTTL time.Duration
	// ForwardTTL is the lifetime of forwarding records installed by
	// Delete Location Messages (§3.2: "this record will keep a while
	// until MN has completed handoff").
	ForwardTTL time.Duration
	// ResourceSwitching enables the RSMC packet buffering that converts
	// handoff losses into delayed deliveries (§1/§4).
	ResourceSwitching bool
	// SwitchBufferLimit bounds each per-MN buffer (0 = unbounded).
	SwitchBufferLimit int
	// DrainDelay is how long a buffering station waits before replaying
	// buffered packets up the tree.
	DrainDelay time.Duration
	// AirDelay and AirLoss characterise this station's wireless hop.
	AirDelay time.Duration
	AirLoss  float64
	// Channels, GuardChannels and CapacityBPS shape the station's
	// admission resources.
	Channels      int
	GuardChannels int
	CapacityBPS   float64
}

// DefaultStationConfig returns per-tier defaults: micro cells have more
// capacity per area but fewer channels than macro cells, per the paper's
// bandwidth rationale for switching down-tier.
func DefaultStationConfig(tier topology.Tier) StationConfig {
	cfg := StationConfig{
		TableTTL:          3 * time.Second,
		ForwardTTL:        2 * time.Second,
		ResourceSwitching: true,
		SwitchBufferLimit: 256,
		DrainDelay:        60 * time.Millisecond,
		AirDelay:          4 * time.Millisecond,
	}
	switch tier {
	case topology.TierPico:
		cfg.AirDelay = 2 * time.Millisecond
		cfg.Channels, cfg.GuardChannels, cfg.CapacityBPS = 16, 2, 20e6
	case topology.TierMicro:
		cfg.Channels, cfg.GuardChannels, cfg.CapacityBPS = 32, 4, 10e6
	case topology.TierMacro:
		cfg.AirDelay = 8 * time.Millisecond
		cfg.Channels, cfg.GuardChannels, cfg.CapacityBPS = 64, 8, 5e6
	case topology.TierRoot:
		cfg.AirDelay = 12 * time.Millisecond
		cfg.Channels, cfg.GuardChannels, cfg.CapacityBPS = 96, 12, 4e6
	}
	return cfg
}
