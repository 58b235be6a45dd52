package qos

// Pool and buffer readouts no run path calls; the QoS tests check
// admission accounting through them.

// Free returns the idle channel count.
func (p *ChannelPool) Free() int { return p.total - p.inUse }

// Used returns the reserved bandwidth in bps.
func (b *BandwidthPool) Used() float64 { return b.used }

// BPS returns the session's reserved bandwidth.
func (s *Session) BPS() float64 { return s.bps }

// Len returns the buffered packet count.
func (b *SwitchBuffer) Len() int { return len(b.pkts) }
