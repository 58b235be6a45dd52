// Command mmsim runs one mobility-management scenario and prints its
// metrics. It is the single-run counterpart to cmd/mmscale. With
// -reps > 1 the scenario is replicated with runner-derived seeds across
// -parallel workers and per-replication plus aggregate statistics are
// printed.
//
// Example:
//
//	mmsim -scheme multitier-rsmc -mns 8 -speed 15 -duration 2m -video
//	mmsim -reps 8 -parallel 4 -seed 42
//	mmsim -mns 500 -fleet pedestrian-voice=60,vehicular-video=25,stationary-data=15
//	mmsim -trace -sample 500ms -traceout run.jsonl   # deterministic trace + time series
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mmsim:", err)
		os.Exit(1)
	}
}

// mobilityKinds is the -mobility help text: every kind core knows.
func mobilityKinds() string {
	var kinds []string
	for _, k := range core.MobilityKinds() {
		kinds = append(kinds, string(k))
	}
	return strings.Join(kinds, " | ")
}

func run(args []string) error {
	fs := flag.NewFlagSet("mmsim", flag.ContinueOnError)
	var (
		scheme    = fs.String("scheme", string(core.SchemeMultiTier), "mobile-ip | cellular-ip-hard | cellular-ip-semisoft | multitier-rsmc")
		seed      = fs.Int64("seed", 1, "simulation seed")
		duration  = fs.Duration("duration", time.Minute, "virtual duration")
		mns       = fs.Int("mns", 8, "mobile node population")
		speed     = fs.Float64("speed", 10, "node speed in m/s")
		mob       = fs.String("mobility", string(core.MobilityShuttle), mobilityKinds())
		voice     = fs.Bool("voice", true, "downlink voice flow per MN")
		video     = fs.Bool("video", false, "downlink video flow per MN")
		dataIvl   = fs.Duration("data-interval", 0, "poisson data mean gap (0 = off)")
		roots     = fs.Int("roots", 1, "upper-layer base stations")
		noSwitch  = fs.Bool("no-resource-switching", false, "disable RSMC packet buffering")
		authOn    = fs.Bool("auth", false, "enable RSMC authentication")
		shadowing = fs.Bool("shadowing", false, "log-normal shadowing on measurements")
		full      = fs.Bool("metrics", false, "print the full metric registry")
		reps      = fs.Int("reps", 1, "replications of the scenario (runner-derived seeds)")
		parallel  = fs.Int("parallel", runtime.GOMAXPROCS(0), "replication workers")
		fleetArg  = fs.String("fleet", "", "heterogeneous population mix as name=share,... (overrides -mobility/-speed/-voice/-video/-data-interval)")
		arena     = fs.Bool("arena", false, "per-scenario packet arena instead of the global pool (scale runs)")
		trace     = fs.Bool("trace", false, "record a deterministic event trace of the run")
		sample    = fs.Duration("sample", 0, "with -trace, time-series sampling cadence (0 = events only)")
		traceout  = fs.String("traceout", "trace.jsonl", "with -trace, JSONL trace output path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("reps %d: must be >= 1", *reps)
	}
	if *parallel < 1 {
		return fmt.Errorf("parallel %d: must be >= 1", *parallel)
	}

	topCfg := topology.DefaultConfig()
	topCfg.Roots = *roots
	cfg := core.Config{
		Seed:              *seed,
		Duration:          *duration,
		Scheme:            core.Scheme(*scheme),
		Topology:          topCfg,
		NumMNs:            *mns,
		Mobility:          core.MobilityKind(*mob),
		SpeedMPS:          *speed,
		Traffic:           core.TrafficConfig{Voice: *voice, Video: *video, DataMeanInterval: *dataIvl},
		MeasureInterval:   100 * time.Millisecond,
		ResourceSwitching: !*noSwitch,
		GuardChannels:     -1,
		AuthEnabled:       *authOn,
		Shadowing:         *shadowing,
		PacketArena:       *arena,
	}
	if *fleetArg != "" {
		spec, err := fleet.ParseSpec(*fleetArg)
		if err != nil {
			return err
		}
		cfg.Fleet = &spec
	}
	if *trace {
		cfg.Obs = &obs.Config{
			SampleInterval:    *sample,
			PacketSampleEvery: defaultPacketSampleEvery,
		}
	}
	if *reps > 1 {
		return runReplicated(cfg, *reps, *parallel, *full, *traceout)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("scheme=%s mns=%d speed=%.1fm/s duration=%v seed=%d\n",
		cfg.Scheme, cfg.NumMNs, cfg.SpeedMPS, cfg.Duration, cfg.Seed)
	fmt.Println(res.Summary)
	if *full {
		fmt.Println()
		fmt.Print(res.Registry.Render())
	}
	return writeTrace(res, *traceout)
}

// defaultPacketSampleEvery traces every Nth generated data packet's
// lifecycle: dense enough to reconstruct loss windows, sparse enough
// that packet events do not dominate the trace.
const defaultPacketSampleEvery = 64

// writeTrace exports a traced run to path and reports the trace shape
// (plus the measured measure/decide wall-clock split, which lives only
// on stderr — it is host-dependent and excluded from the trace bytes).
func writeTrace(res *core.Result, path string) error {
	tr := res.Trace
	if tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteJSONL(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	fmt.Fprintf(os.Stderr, "mmsim: trace %s: %d events (%d dropped), %d samples, measure=%v decide=%v\n",
		path, len(tr.Events()), tr.Dropped(), tr.Samples(),
		time.Duration(tr.Wall.MeasureNS).Round(time.Microsecond),
		time.Duration(tr.Wall.DecideNS).Round(time.Microsecond))
	return nil
}

// runReplicated executes the scenario reps times through the worker pool
// (the configured seed becomes the runner's base seed) and prints each
// replication plus the aggregate.
func runReplicated(cfg core.Config, reps, parallel int, full bool, traceout string) error {
	base := cfg.Seed
	// Paired so replication 0 runs on the base seed itself: -reps N
	// always contains the plain -seed run and adds error bars to it.
	res, err := runner.Run(
		[]runner.Job{{Label: string(cfg.Scheme), Config: cfg}},
		runner.Options{BaseSeed: base, Reps: reps, Parallel: parallel, Paired: true})
	if err != nil {
		return err
	}
	r := res[0]
	fmt.Printf("scheme=%s mns=%d speed=%.1fm/s duration=%v base-seed=%d reps=%d\n",
		cfg.Scheme, cfg.NumMNs, cfg.SpeedMPS, cfg.Duration, base, reps)
	for i, run := range r.Runs {
		fmt.Printf("rep %d seed=%d: %s\n", i, r.Seeds[i], run.Summary)
	}
	printStat := func(name, unit string, s runner.Stat) {
		fmt.Printf("  %-14s mean=%.4f%s std=%.4f%s min=%.4f%s max=%.4f%s\n",
			name, s.Mean, unit, s.Std, unit, s.Min, unit, s.Max, unit)
	}
	fmt.Println("aggregate:")
	printStat("loss", "", r.LossRate())
	printStat("mean latency", "s", r.MeanLatency())
	printStat("p95 latency", "s", r.P95Latency())
	printStat("handoffs", "", r.Handoffs())
	printStat("signal msgs", "", r.SignalingMsgs())
	printStat("signal bytes", "B", r.SignalingBytes())
	if full {
		fmt.Printf("\nmetrics (rep 0, seed %d):\n", r.Seeds[0])
		fmt.Print(r.Runs[0].Registry.Render())
	}
	// Replicated traced runs export replication 0 (the base-seed run).
	if first := r.First(); first != nil {
		return writeTrace(first, traceout)
	}
	return nil
}
