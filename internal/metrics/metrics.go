package metrics

import (
	"fmt"
	"strings"
)

// Counter is a monotone event count.
type Counter struct{ n uint64 }

// Inc adds one.
//
//mmlint:noalloc
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
//
//mmlint:noalloc
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// LossAccount tracks the fate of every packet in a flow or scheme:
// sent = delivered + dropped + in-flight, with drops attributed to a reason.
// The integration tests assert this conservation law on whole scenarios.
type LossAccount struct {
	Sent      uint64
	Delivered uint64
	Drops     map[DropReason]uint64
	Bytes     uint64 // delivered payload bytes
}

// DropReason attributes a packet drop to its cause.
type DropReason uint8

// Drop reasons.
const (
	DropQueueFull DropReason = iota + 1 // link queue overflow
	DropLinkLoss                        // random link corruption/loss
	DropNoRoute                         // no routing/forwarding entry
	DropTTL                             // hop limit exceeded
	DropHandoff                         // lost in flight during handoff
	DropStale                           // arrived for a departed node
	DropAdmission                       // refused by QoS admission control
	DropAuth                            // failed RSMC authentication
	DropBSDown                          // base station failure injection
	DropFault                           // flushed at a station forced down by fault injection
	DropPreempted                       // flushed when the degradation ladder preempted the session
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropLinkLoss:
		return "link-loss"
	case DropNoRoute:
		return "no-route"
	case DropTTL:
		return "ttl"
	case DropHandoff:
		return "handoff"
	case DropStale:
		return "stale"
	case DropAdmission:
		return "admission"
	case DropAuth:
		return "auth"
	case DropBSDown:
		return "bs-down"
	case DropFault:
		return "fault"
	case DropPreempted:
		return "preempted"
	default:
		return fmt.Sprintf("drop(%d)", uint8(r))
	}
}

// NewLossAccount returns an empty account.
func NewLossAccount() *LossAccount {
	return &LossAccount{Drops: make(map[DropReason]uint64)}
}

// OnSent records a transmitted packet.
func (l *LossAccount) OnSent() { l.Sent++ }

// OnDelivered records a packet reaching its destination with its payload size.
func (l *LossAccount) OnDelivered(payloadBytes int) {
	l.Delivered++
	l.Bytes += uint64(payloadBytes)
}

// OnDropped records a packet loss with its cause.
func (l *LossAccount) OnDropped(r DropReason) { l.Drops[r]++ }

// Dropped returns the total packets lost for any reason.
func (l *LossAccount) Dropped() uint64 {
	var total uint64
	for _, n := range l.Drops {
		total += n
	}
	return total
}

// LossRate returns dropped/sent in [0,1], zero when nothing was sent.
func (l *LossAccount) LossRate() float64 {
	if l.Sent == 0 {
		return 0
	}
	return float64(l.Dropped()) / float64(l.Sent)
}

// String summarises the account.
func (l *LossAccount) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d (%.3f%%)",
		l.Sent, l.Delivered, l.Dropped(), 100*l.LossRate())
}

// Registry is an ordered collection of named metrics for one scenario run.
type Registry struct {
	order      []string
	counters   map[string]*Counter
	histograms map[string]*Histogram
	samples    map[string]*Sample
	accounts   map[string]*LossAccount
	breakdowns map[string]*Breakdown
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		samples:    make(map[string]*Sample),
		accounts:   make(map[string]*LossAccount),
		breakdowns: make(map[string]*Breakdown),
	}
}

func (r *Registry) remember(name string) {
	for _, n := range r.order {
		if n == name {
			return
		}
	}
	r.order = append(r.order, name)
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.remember(name)
	}
	return c
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
		r.remember(name)
	}
	return h
}

// Sample returns (creating on first use) the named scalar series.
func (r *Registry) Sample(name string) *Sample {
	s, ok := r.samples[name]
	if !ok {
		s = &Sample{}
		r.samples[name] = s
		r.remember(name)
	}
	return s
}

// Account returns (creating on first use) the named loss account.
func (r *Registry) Account(name string) *LossAccount {
	a, ok := r.accounts[name]
	if !ok {
		a = NewLossAccount()
		r.accounts[name] = a
		r.remember(name)
	}
	return a
}

// Names returns metric names in first-use order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Render formats every metric, one per line, in first-use order.
func (r *Registry) Render() string {
	var b strings.Builder
	for _, name := range r.order {
		switch {
		case r.counters[name] != nil:
			fmt.Fprintf(&b, "%-42s %d\n", name, r.counters[name].Value())
		case r.histograms[name] != nil:
			fmt.Fprintf(&b, "%-42s %s\n", name, r.histograms[name])
		case r.samples[name] != nil:
			s := r.samples[name]
			fmt.Fprintf(&b, "%-42s n=%d mean=%.3f min=%.3f max=%.3f\n", name, s.Count(), s.Mean(), s.Min(), s.Max())
		case r.accounts[name] != nil:
			fmt.Fprintf(&b, "%-42s %s\n", name, r.accounts[name])
		case r.breakdowns[name] != nil:
			fmt.Fprintf(&b, "%-42s %s\n", name, r.breakdowns[name])
		}
	}
	return b.String()
}
