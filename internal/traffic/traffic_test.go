package traffic

import (
	"math"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/packet"
	"repro/internal/simtime"
)

func testFlow() Flow {
	return Flow{
		ID:    1,
		Src:   addr.MustParse("10.0.0.1"),
		Dst:   addr.MustParse("10.1.0.1"),
		Class: packet.ClassBackground,
	}
}

func TestCBRRateAndSequence(t *testing.T) {
	sched := simtime.NewScheduler()
	var got []*packet.Packet
	g := NewCBR(testFlow(), 100, 10*time.Millisecond, func(p *packet.Packet) { got = append(got, p) })
	g.Start(sched)
	sched.RunUntil(time.Second)
	g.Stop()
	// EveryNow: fires at 0,10,...,1000ms inclusive = 101 packets.
	if len(got) != 101 {
		t.Fatalf("emitted %d packets, want 101", len(got))
	}
	if g.Sent() != 101 {
		t.Fatalf("Sent = %d", g.Sent())
	}
	for i, p := range got {
		if p.Seq != uint32(i) {
			t.Fatalf("seq %d at index %d", p.Seq, i)
		}
		if len(p.Payload) != 100 {
			t.Fatalf("payload %d bytes", len(p.Payload))
		}
		if p.SentAt != time.Duration(i)*10*time.Millisecond {
			t.Fatalf("SentAt = %v at index %d", p.SentAt, i)
		}
	}
}

func TestVoicePreset(t *testing.T) {
	sched := simtime.NewScheduler()
	var got []*packet.Packet
	g := NewVoice(testFlow(), func(p *packet.Packet) { got = append(got, p) })
	g.Start(sched)
	sched.RunUntil(time.Second)
	g.Stop()
	if len(got) != 51 {
		t.Fatalf("voice emitted %d packets in 1s, want 51", len(got))
	}
	if got[0].Class != packet.ClassConversational {
		t.Fatalf("voice class = %v", got[0].Class)
	}
	// 64 kb/s: 51 * 160 bytes over ~1s.
	var bytes int
	for _, p := range got {
		bytes += len(p.Payload)
	}
	if bytes != 51*160 {
		t.Fatalf("voice bytes = %d", bytes)
	}
}

func TestCBRDoubleStartIsNoop(t *testing.T) {
	sched := simtime.NewScheduler()
	count := 0
	g := NewCBR(testFlow(), 10, 100*time.Millisecond, func(*packet.Packet) { count++ })
	g.Start(sched)
	g.Start(sched) // must not double-emit
	sched.RunUntil(time.Second)
	g.Stop()
	if count != 11 {
		t.Fatalf("emitted %d, want 11", count)
	}
}

func TestCBRStopHalts(t *testing.T) {
	sched := simtime.NewScheduler()
	count := 0
	g := NewCBR(testFlow(), 10, 10*time.Millisecond, func(*packet.Packet) { count++ })
	g.Start(sched)
	sched.At(100*time.Millisecond, g.Stop)
	sched.RunUntil(time.Second)
	// Stop was scheduled (at t=0) before the 100ms tick was armed (at
	// t=90ms), so the FIFO tie-break runs Stop first: ticks 0..90ms = 10.
	if count != 10 {
		t.Fatalf("emitted %d after stop at 100ms, want 10", count)
	}
	// Restart works.
	g.Start(sched)
	sched.RunUntil(1100 * time.Millisecond)
	if count <= 11 {
		t.Fatal("restart did not resume emission")
	}
}

func TestVBRVideoMeanRate(t *testing.T) {
	sched := simtime.NewScheduler()
	var bytes int
	var pkts int
	cfg := DefaultVideoConfig()
	g := NewVBRVideo(testFlow(), cfg, simtime.NewRand(5), func(p *packet.Packet) {
		bytes += len(p.Payload)
		pkts++
	})
	g.Start(sched)
	const secs = 100
	sched.RunUntil(secs * time.Second)
	g.Stop()
	frames := secs * int(time.Second/cfg.FrameInterval)
	meanFrame := float64(bytes) / float64(frames)
	if math.Abs(meanFrame-float64(cfg.MeanFrameSize)) > 0.1*float64(cfg.MeanFrameSize) {
		t.Fatalf("mean frame %v bytes, want ~%d", meanFrame, cfg.MeanFrameSize)
	}
	if uint64(pkts) != g.Sent() {
		t.Fatalf("Sent=%d but sink saw %d", g.Sent(), pkts)
	}
}

func TestVBRVideoRespectsMTU(t *testing.T) {
	sched := simtime.NewScheduler()
	cfg := VideoConfig{FrameInterval: 40 * time.Millisecond, MeanFrameSize: 5000, Sigma: 0.8, MTU: 700}
	g := NewVBRVideo(testFlow(), cfg, simtime.NewRand(6), func(p *packet.Packet) {
		if len(p.Payload) > 700 {
			t.Fatalf("packet %d bytes exceeds MTU", len(p.Payload))
		}
		if p.Class != packet.ClassStreaming {
			t.Fatalf("class = %v", p.Class)
		}
	})
	g.Start(sched)
	sched.RunUntil(10 * time.Second)
	g.Stop()
}

// TestVBRVideoSetLevel pins the rate-adaptation contract: stepping the
// level scales frame bytes without shifting the rng stream, a scale of
// exactly 1 is bit-identical to an unadapted stream, and out-of-range
// scales clamp (above 1) or are ignored (non-positive).
func TestVBRVideoSetLevel(t *testing.T) {
	run := func(seed int64, scale float64) (bytes int, sizes []int) {
		sched := simtime.NewScheduler()
		g := NewVBRVideo(testFlow(), DefaultVideoConfig(), simtime.NewRand(seed), func(p *packet.Packet) {
			bytes += len(p.Payload)
			sizes = append(sizes, len(p.Payload))
		})
		g.SetLevel(scale)
		g.Start(sched)
		sched.RunUntil(10 * time.Second)
		g.Stop()
		return bytes, sizes
	}
	fullBytes, fullSizes := run(5, 1)
	halfBytes, _ := run(5, 0.5)
	if ratio := float64(halfBytes) / float64(fullBytes); math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("half-rate stream carried %.2fx the full-rate bytes, want ~0.5", ratio)
	}
	// Exact identity at scale 1: the same seed renders the same packet
	// sizes byte for byte (the Degrade == nil golden-identity guarantee).
	againBytes, againSizes := run(5, 1)
	if againBytes != fullBytes || len(againSizes) != len(fullSizes) {
		t.Fatalf("scale-1 rerun diverged: %d bytes / %d pkts vs %d / %d",
			againBytes, len(againSizes), fullBytes, len(fullSizes))
	}
	for i := range fullSizes {
		if fullSizes[i] != againSizes[i] {
			t.Fatalf("scale-1 rerun packet %d is %d bytes, want %d", i, againSizes[i], fullSizes[i])
		}
	}
	// Clamping: above 1 behaves as full rate, non-positive is ignored.
	g := NewVBRVideo(testFlow(), DefaultVideoConfig(), simtime.NewRand(1), func(*packet.Packet) {})
	g.SetLevel(2)
	if g.Level() != 1 {
		t.Fatalf("SetLevel(2) left scale %v, want clamp to 1", g.Level())
	}
	g.SetLevel(0.6)
	g.SetLevel(0)
	g.SetLevel(-1)
	if g.Level() != 0.6 {
		t.Fatalf("non-positive SetLevel moved scale to %v, want 0.6 kept", g.Level())
	}
}

func TestVBRVideoDefaultsOnZeroConfig(t *testing.T) {
	sched := simtime.NewScheduler()
	n := 0
	g := NewVBRVideo(testFlow(), VideoConfig{}, simtime.NewRand(1), func(*packet.Packet) { n++ })
	g.Start(sched)
	sched.RunUntil(time.Second)
	if n == 0 {
		t.Fatal("zero config produced no packets")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	sched := simtime.NewScheduler()
	count := 0
	g := NewPoisson(testFlow(), 200, 50*time.Millisecond, simtime.NewRand(8), func(*packet.Packet) { count++ })
	g.Start(sched)
	const secs = 500
	sched.RunUntil(secs * time.Second)
	g.Stop()
	rate := float64(count) / secs // want ~20/s
	if math.Abs(rate-20) > 1 {
		t.Fatalf("poisson rate %v/s, want ~20", rate)
	}
}

func TestPoissonStopAndRestart(t *testing.T) {
	sched := simtime.NewScheduler()
	count := 0
	g := NewPoisson(testFlow(), 100, 10*time.Millisecond, simtime.NewRand(9), func(*packet.Packet) { count++ })
	g.Start(sched)
	sched.At(time.Second, g.Stop)
	sched.RunUntil(2 * time.Second)
	after := count
	if after == 0 {
		t.Fatal("no packets before stop")
	}
	sched.RunUntil(3 * time.Second)
	if count != after {
		t.Fatal("packets emitted while stopped")
	}
	g.Start(sched)
	sched.RunUntil(4 * time.Second)
	if count == after {
		t.Fatal("restart did not resume")
	}
}

func TestPoissonSequenceMonotone(t *testing.T) {
	sched := simtime.NewScheduler()
	var last int64 = -1
	g := NewPoisson(testFlow(), 100, 20*time.Millisecond, simtime.NewRand(3), func(p *packet.Packet) {
		if int64(p.Seq) != last+1 {
			t.Fatalf("seq jump: %d after %d", p.Seq, last)
		}
		last = int64(p.Seq)
	})
	g.Start(sched)
	sched.RunUntil(10 * time.Second)
	g.Stop()
}

func TestGeneratorFlowAccessor(t *testing.T) {
	f := testFlow()
	gens := []Generator{
		NewCBR(f, 10, time.Second, func(*packet.Packet) {}),
		NewVBRVideo(f, DefaultVideoConfig(), simtime.NewRand(1), func(*packet.Packet) {}),
		NewPoisson(f, 10, time.Second, simtime.NewRand(1), func(*packet.Packet) {}),
	}
	for _, g := range gens {
		if g.Flow().ID != f.ID || g.Flow().Src != f.Src {
			t.Fatalf("Flow() = %+v", g.Flow())
		}
		if g.Sent() != 0 {
			t.Fatal("fresh generator has nonzero Sent")
		}
	}
}
