package rsmc

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/metrics"
	"repro/internal/multitier"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func buildHead(t *testing.T) (*multitier.Station, *metrics.Registry) {
	t.Helper()
	sched := simtime.NewScheduler()
	net := netsim.New(sched, simtime.NewRand(1))
	top, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := multitier.NewDirectory()
	reg := metrics.NewRegistry()
	stats := multitier.NewStats(reg)
	head := multitier.NewStation(net.NewNode("head"), top.Cell(top.Domains[0].Root), top,
		multitier.DefaultStationConfig(topology.TierMacro), dir, stats)
	return head, reg
}

var mn = addr.MustParse("172.16.0.5")

func TestRSMCInstallsAsController(t *testing.T) {
	head, reg := buildHead(t)
	r := New(head, nil, NewStats(reg, 0))
	// The station's attach hook reaches the RSMC only once it is installed.
	head.AttachMN(mn, head.Node().Network().NewNode("mn"))
	if r.stats.Attaches.Value() != 1 {
		t.Fatal("RSMC not installed on station")
	}
	if r.domain != 0 || r.station != head {
		t.Fatal("RSMC identity wrong")
	}
}

func TestRSMCAuthorizeWithoutAuthenticator(t *testing.T) {
	head, reg := buildHead(t)
	r := New(head, nil, NewStats(reg, 0))
	if err := r.Authorize(mn, 1, nil); err != nil {
		t.Fatalf("nil authenticator should admit: %v", err)
	}
	if r.stats.Operations.Value() != 1 {
		t.Fatal("operation not counted")
	}
	if r.stats.AuthChecks.Value() != 0 {
		t.Fatal("auth check counted with auth disabled")
	}
}

func TestRSMCAuthorizeVerifiesAndRejectsReplay(t *testing.T) {
	head, reg := buildHead(t)
	a, err := auth.New([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	r := New(head, a, NewStats(reg, 0))
	tok := a.Token(mn, 5)
	if err := r.Authorize(mn, 5, tok); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
	if err := r.Authorize(mn, 5, tok); !errors.Is(err, ErrAuthRequired) {
		t.Fatalf("replay admitted: %v", err)
	}
	bad := make([]byte, auth.TokenSize)
	if err := r.Authorize(mn, 6, bad); !errors.Is(err, ErrAuthRequired) {
		t.Fatalf("garbage token admitted: %v", err)
	}
	if r.stats.AuthFailures.Value() != 2 {
		t.Fatalf("auth failures = %d", r.stats.AuthFailures.Value())
	}
	if r.stats.AuthChecks.Value() != 3 {
		t.Fatalf("auth checks = %d", r.stats.AuthChecks.Value())
	}
}

func TestRSMCMembershipTracking(t *testing.T) {
	head, reg := buildHead(t)
	r := New(head, nil, NewStats(reg, 0))
	net := head.Node().Network()
	mnNode := net.NewNode("mn")
	head.AttachMN(mn, mnNode)
	if r.stats.Attaches.Value() != 1 || r.stats.Detaches.Value() != 0 || r.stats.Operations.Value() != 1 {
		t.Fatal("attach not tracked")
	}
	head.DetachMN(mn)
	if r.stats.Attaches.Value() != 1 || r.stats.Detaches.Value() != 1 {
		t.Fatal("detach not tracked")
	}
	if r.stats.Operations.Value() != 2 {
		t.Fatalf("operations = %d", r.stats.Operations.Value())
	}
}
