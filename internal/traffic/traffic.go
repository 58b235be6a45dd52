// Package traffic generates the multimedia workloads the paper's
// architecture is meant to carry: constant-bit-rate voice, frame-based
// variable-bit-rate video, and Poisson data. Generators emit packets into
// a caller-supplied sink on the virtual clock; the sink is typically the
// corresponding node's send path.
package traffic

import (
	"time"

	"repro/internal/addr"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Sink consumes generated packets. It must not retain the packet past the
// call unless it owns it (the generator never reuses packets).
type Sink func(p *packet.Packet)

// Flow identifies one end-to-end stream.
type Flow struct {
	ID       uint32
	Src, Dst addr.IP
	Class    packet.Class
}

// Generator is a schedulable packet source.
type Generator interface {
	// Start begins emission on the scheduler. Calling Start twice is a
	// no-op while running.
	Start(sched *simtime.Scheduler)
	// Stop halts emission. Safe to call repeatedly.
	Stop()
	// Sent returns packets emitted so far.
	Sent() uint64
	// Flow returns the stream identity.
	Flow() Flow
}

// CBR emits fixed-size packets at a fixed interval — the classic voice
// model (G.711: 160-byte frames every 20 ms = 64 kb/s).
type CBR struct {
	flow     Flow
	size     int
	interval time.Duration
	sink     Sink
	// Alloc optionally draws packets from a scenario-owned allocator
	// instead of the global pool; set before Start.
	Alloc packet.Allocator

	seq    uint32
	sent   uint64
	ticker *simtime.Ticker
	sched  *simtime.Scheduler
}

var _ Generator = (*CBR)(nil)

// NewCBR returns a constant-bit-rate source.
func NewCBR(flow Flow, size int, interval time.Duration, sink Sink) *CBR {
	return &CBR{flow: flow, size: size, interval: interval, sink: sink}
}

// NewVoice returns a G.711-like 64 kb/s conversational source.
func NewVoice(flow Flow, sink Sink) *CBR {
	flow.Class = packet.ClassConversational
	return NewCBR(flow, 160, 20*time.Millisecond, sink)
}

// Start implements Generator.
func (c *CBR) Start(sched *simtime.Scheduler) {
	if c.ticker != nil && !c.ticker.Stopped() {
		return
	}
	c.sched = sched
	c.ticker = sched.EveryNow(c.interval, c.emit)
}

func (c *CBR) emit() {
	p := packet.NewFrom(c.Alloc, c.flow.Src, c.flow.Dst, c.flow.Class, c.flow.ID, c.seq, packet.ZeroPayload(c.size))
	p.SentAt = c.sched.Now()
	c.seq++
	c.sent++
	c.sink(p)
}

// Stop implements Generator.
func (c *CBR) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// Sent implements Generator.
func (c *CBR) Sent() uint64 { return c.sent }

// Flow implements Generator.
func (c *CBR) Flow() Flow { return c.flow }

// VBRVideo emits one video frame per frame interval with log-normally
// distributed frame sizes, split into MTU-sized packets — a streaming
// workload with the burstiness that stresses handoff buffering.
type VBRVideo struct {
	flow      Flow
	frameIvl  time.Duration
	meanBytes float64
	sigma     float64 // lognormal sigma of the underlying normal
	mtu       int
	sink      Sink
	rng       *simtime.Rand
	// scale is the current rate-adaptation multiplier on the mean frame
	// size; 1 at full rate. Set via SetLevel by the degradation ladder.
	scale float64
	// Alloc optionally draws packets from a scenario-owned allocator
	// instead of the global pool; set before Start.
	Alloc packet.Allocator

	seq    uint32
	sent   uint64
	ticker *simtime.Ticker
	sched  *simtime.Scheduler
}

var _ Generator = (*VBRVideo)(nil)

// VideoConfig parameterises NewVBRVideo.
type VideoConfig struct {
	FrameInterval time.Duration // e.g. 40 ms for 25 fps
	MeanFrameSize int           // bytes per frame on average
	Sigma         float64       // lognormal shape; 0.5 is bursty but sane
	MTU           int           // packetisation size
}

// DefaultVideoConfig is a 25 fps, ~300 kb/s stream.
func DefaultVideoConfig() VideoConfig {
	return VideoConfig{
		FrameInterval: 40 * time.Millisecond,
		MeanFrameSize: 1500,
		Sigma:         0.5,
		MTU:           1000,
	}
}

// NewVBRVideo returns a frame-based VBR source drawing sizes from rng.
func NewVBRVideo(flow Flow, cfg VideoConfig, rng *simtime.Rand, sink Sink) *VBRVideo {
	if cfg.FrameInterval <= 0 {
		cfg.FrameInterval = 40 * time.Millisecond
	}
	if cfg.MeanFrameSize <= 0 {
		cfg.MeanFrameSize = 1500
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1000
	}
	flow.Class = packet.ClassStreaming
	return &VBRVideo{
		flow:      flow,
		frameIvl:  cfg.FrameInterval,
		meanBytes: float64(cfg.MeanFrameSize),
		sigma:     cfg.Sigma,
		mtu:       cfg.MTU,
		sink:      sink,
		rng:       rng,
		scale:     1,
	}
}

// SetLevel adapts the stream's bitrate: the mean frame size is scaled by
// the given factor, clamped to (0, 1]. The frame cadence and the rng
// draw per frame are untouched, so stepping the level up or down never
// shifts the generator's random stream — only frame sizes change. At
// scale 1 frame sizes are bit-exact with an unadapted stream.
func (v *VBRVideo) SetLevel(scale float64) {
	if scale > 1 {
		scale = 1
	}
	if scale <= 0 {
		return
	}
	v.scale = scale
}

// Start implements Generator.
func (v *VBRVideo) Start(sched *simtime.Scheduler) {
	if v.ticker != nil && !v.ticker.Stopped() {
		return
	}
	v.sched = sched
	v.ticker = sched.EveryNow(v.frameIvl, v.emitFrame)
}

func (v *VBRVideo) emitFrame() {
	// Lognormal with the requested mean: mean = exp(mu + sigma²/2).
	mu := 0.0
	if v.sigma > 0 {
		mu = -v.sigma * v.sigma / 2
	}
	size := int(v.meanBytes * v.scale * v.rng.LogNormal(mu, v.sigma))
	if size < 64 {
		size = 64
	}
	for size > 0 {
		chunk := size
		if chunk > v.mtu {
			chunk = v.mtu
		}
		p := packet.NewFrom(v.Alloc, v.flow.Src, v.flow.Dst, v.flow.Class, v.flow.ID, v.seq, packet.ZeroPayload(chunk))
		p.SentAt = v.sched.Now()
		v.seq++
		v.sent++
		v.sink(p)
		size -= chunk
	}
}

// Stop implements Generator.
func (v *VBRVideo) Stop() {
	if v.ticker != nil {
		v.ticker.Stop()
	}
}

// Sent implements Generator.
func (v *VBRVideo) Sent() uint64 { return v.sent }

// Flow implements Generator.
func (v *VBRVideo) Flow() Flow { return v.flow }

// Poisson emits fixed-size packets with exponential inter-arrival times —
// the interactive/background data model.
type Poisson struct {
	flow    Flow
	size    int
	meanIvl time.Duration
	sink    Sink
	rng     *simtime.Rand
	// Alloc optionally draws packets from a scenario-owned allocator
	// instead of the global pool; set before Start.
	Alloc   packet.Allocator
	stopped bool
	nextEvt simtime.Event
	emitFn  func() // bound once so re-arming never allocates
	seq     uint32
	sent    uint64
	sched   *simtime.Scheduler
	started bool
}

var _ Generator = (*Poisson)(nil)

// NewPoisson returns a Poisson source with the given mean inter-arrival.
func NewPoisson(flow Flow, size int, meanInterval time.Duration, rng *simtime.Rand, sink Sink) *Poisson {
	if meanInterval <= 0 {
		meanInterval = time.Second
	}
	return &Poisson{flow: flow, size: size, meanIvl: meanInterval, rng: rng, sink: sink}
}

// Start implements Generator.
func (p *Poisson) Start(sched *simtime.Scheduler) {
	if p.started && !p.stopped {
		return
	}
	p.sched = sched
	p.started = true
	p.stopped = false
	p.arm()
}

func (p *Poisson) arm() {
	if p.emitFn == nil {
		p.emitFn = p.emit
	}
	gap := p.rng.ExponentialDuration(p.meanIvl)
	p.nextEvt = p.sched.After(gap, p.emitFn)
}

func (p *Poisson) emit() {
	if p.stopped {
		return
	}
	pkt := packet.NewFrom(p.Alloc, p.flow.Src, p.flow.Dst, p.flow.Class, p.flow.ID, p.seq, packet.ZeroPayload(p.size))
	pkt.SentAt = p.sched.Now()
	p.seq++
	p.sent++
	p.sink(pkt)
	p.arm()
}

// Stop implements Generator.
func (p *Poisson) Stop() {
	p.stopped = true
	p.nextEvt.Cancel()
}

// Sent implements Generator.
func (p *Poisson) Sent() uint64 { return p.sent }

// Flow implements Generator.
func (p *Poisson) Flow() Flow { return p.flow }
