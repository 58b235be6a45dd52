// Package rsmc implements the paper's Resource Switching Management
// Center (§4): the per-domain control centre that combines the gateway
// router with the base-station cache. In this architecture the RSMC is
// attached to the domain-head (macro) station: the station's cell tables
// provide the "store the location information of MN" role and its
// forwarding machinery the "forward data packets to MN" role, while the
// RSMC itself contributes MN authentication, domain membership tracking
// and the load accounting the paper argues stays low ("Because it is in a
// limited area, the load of RSMC is very low").
package rsmc

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/metrics"
	"repro/internal/multitier"
)

// ErrAuthRequired is returned when authentication is enabled and the MN
// presented no or bad credentials.
var ErrAuthRequired = errors.New("rsmc: authentication failed")

// Stats aggregates per-RSMC load measurements for E8.
type Stats struct {
	// AuthChecks counts credential verifications performed.
	AuthChecks *metrics.Counter
	// AuthFailures counts refused verifications.
	AuthFailures *metrics.Counter
	// Attaches and Detaches count domain membership churn.
	Attaches *metrics.Counter
	Detaches *metrics.Counter
	// Operations counts every RSMC action (the load metric).
	Operations *metrics.Counter
}

// NewStats wires stats into a registry under the "rsmc." prefix,
// qualified by domain so multiple RSMCs stay distinguishable.
func NewStats(reg *metrics.Registry, domain int) *Stats {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	p := fmt.Sprintf("rsmc.%d.", domain)
	return &Stats{
		AuthChecks:   reg.Counter(p + "auth_checks"),
		AuthFailures: reg.Counter(p + "auth_failures"),
		Attaches:     reg.Counter(p + "attaches"),
		Detaches:     reg.Counter(p + "detaches"),
		Operations:   reg.Counter(p + "operations"),
	}
}

// RSMC is the domain controller. It implements multitier.Controller.
type RSMC struct {
	domain  int
	station *multitier.Station
	auth    *auth.Authenticator // nil disables authentication
	stats   *Stats
	members map[addr.IP]bool
}

var _ multitier.Controller = (*RSMC)(nil)

// New attaches an RSMC to the domain-head station and installs it as the
// station's controller. authenticator may be nil to disable MN
// authentication (ablation D-auth). stats must be non-nil;
// NewStats(nil, domain) gives a private registry.
func New(station *multitier.Station, authenticator *auth.Authenticator, stats *Stats) *RSMC {
	r := &RSMC{
		domain:  station.Cell().Domain,
		station: station,
		auth:    authenticator,
		stats:   stats,
		members: make(map[addr.IP]bool),
	}
	station.SetController(r)
	return r
}

// Domain returns the controlled domain id.
func (r *RSMC) Domain() int { return r.domain }

// Station returns the domain-head station.
func (r *RSMC) Station() *multitier.Station { return r.station }

// MemberCount returns the MNs currently served inside the domain head's
// own cell (macro-tier air).
func (r *RSMC) MemberCount() int { return len(r.members) }

// Member reports whether mn is attached at the domain head.
func (r *RSMC) Member(mn addr.IP) bool { return r.members[mn] }

// Authorize implements multitier.Controller: verify the MN's HMAC token
// with replay protection.
func (r *RSMC) Authorize(mn addr.IP, nonce uint64, token []byte) error {
	r.stats.Operations.Inc()
	if r.station.Node().Down() {
		// The domain head is failed: nobody can vouch for the MN. The
		// admitting station counts this as shed_fault, not a policy shed.
		return fmt.Errorf("%w: domain %d head down", multitier.ErrFaulted, r.domain)
	}
	if r.auth == nil {
		return nil
	}
	r.stats.AuthChecks.Inc()
	if err := r.auth.VerifyFresh(mn, nonce, token); err != nil {
		r.stats.AuthFailures.Inc()
		return fmt.Errorf("%w: %v", ErrAuthRequired, err)
	}
	return nil
}

// OnAttach implements multitier.Controller.
func (r *RSMC) OnAttach(mn addr.IP) {
	r.members[mn] = true
	r.stats.Attaches.Inc()
	r.stats.Operations.Inc()
}

// OnDetach implements multitier.Controller.
func (r *RSMC) OnDetach(mn addr.IP) {
	delete(r.members, mn)
	r.stats.Detaches.Inc()
	r.stats.Operations.Inc()
}
