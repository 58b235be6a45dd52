package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/topology"
)

// Options scale the experiment suite. Zero-value fields take the
// documented defaults (full-length runs, one replication, GOMAXPROCS
// workers); explicitly negative or NaN values are rejected.
type Options struct {
	// Seed drives every run (each experiment offsets it deterministically,
	// and the runner derives one seed per (job, replication) from it).
	Seed int64
	// TimeScale multiplies scenario durations; 0 means 1.0.
	TimeScale float64
	// Reps is the replication count per scenario config; 0 means 1.
	// With Reps > 1 every table cell becomes a mean±std aggregate.
	Reps int
	// Parallel is the scenario worker count; 0 means GOMAXPROCS.
	Parallel int
	// MeasureWorkers is the per-scenario measurement worker count: > 1
	// parallelises each scenario's per-MN measurement phase without
	// changing a single output byte. 0 measures inline (the default).
	MeasureWorkers int
	// Obs, when non-nil, arms deterministic tracing on every scenario of
	// the suite. nil (the default) records nothing and keeps every table
	// byte-identical to the untraced harness.
	Obs *obs.Config
	// TraceDir, when set (and Obs is armed), receives one JSONL trace
	// per job — replication 0 only, named after the job label.
	TraceDir string
}

// ErrBadOptions reports a degenerate Options value.
var ErrBadOptions = errors.New("experiments: invalid options")

// Validate rejects degenerate option values on a fully-specified
// Options: a non-positive or NaN TimeScale used to be silently replaced
// inside scale, producing runs whose durations had nothing to do with
// the requested scale, and reps or workers below one are meaningless.
func (o Options) Validate() error {
	if math.IsNaN(o.TimeScale) || o.TimeScale <= 0 {
		return fmt.Errorf("%w: time scale %v (must be > 0)", ErrBadOptions, o.TimeScale)
	}
	if o.Reps < 1 {
		return fmt.Errorf("%w: reps %d (must be >= 1)", ErrBadOptions, o.Reps)
	}
	if o.Parallel < 1 {
		return fmt.Errorf("%w: parallel %d (must be >= 1)", ErrBadOptions, o.Parallel)
	}
	if o.MeasureWorkers < 0 {
		return fmt.Errorf("%w: measure workers %d (must be >= 0)", ErrBadOptions, o.MeasureWorkers)
	}
	return nil
}

// normalized applies the zero-value defaults, then validates.
func (o Options) normalized() (Options, error) {
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if o.Reps == 0 {
		o.Reps = 1
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// scale multiplies d by the validated TimeScale, flooring the result at
// 2 s so heavily scaled-down suites still exercise handoffs.
func (o Options) scale(d time.Duration) time.Duration {
	out := time.Duration(float64(d) * o.TimeScale)
	if out < 2*time.Second {
		out = 2 * time.Second
	}
	return out
}

// plan is one experiment's deferred execution: the scenario batch plus
// the function that turns the batch's results into the printed table.
// Splitting planning from rendering lets the suite test's All flatten
// every experiment's jobs into one global worker-pool batch while
// single-experiment entry points run their own small batch — with
// identical seeds either way.
type plan struct {
	// num is the experiment number; it offsets the base seed so
	// experiments draw disjoint seed streams.
	num    int
	jobs   []runner.Job
	render func([]runner.JobResult) (*Table, error)
}

// execute runs the experiment's job list through the worker pool. The
// base seed is offset per experiment so experiments draw disjoint seed
// streams, and replications are paired (common random numbers): every
// config in an experiment sees the same mobility and traffic draws per
// replication, so table comparisons isolate the scheme under test —
// and a single-replication suite reproduces the legacy sequential
// harness (cfg.Seed = opt.Seed + experiment) bit-for-bit.
func (o Options) execute(experiment int, jobs []runner.Job) ([]runner.JobResult, error) {
	res, err := runner.Run(jobs, runner.Options{
		BaseSeed:       o.Seed + int64(experiment),
		Reps:           o.Reps,
		Parallel:       o.Parallel,
		Paired:         true,
		MeasureWorkers: o.MeasureWorkers,
		Obs:            o.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("E%d: %w", experiment, err)
	}
	if err := o.writeTraces(res); err != nil {
		return nil, fmt.Errorf("E%d: %w", experiment, err)
	}
	return res, nil
}

// writeTraces exports each job's replication-0 trace into TraceDir as
// <label>.jsonl. A no-op without a trace directory or without tracing.
func (o Options) writeTraces(res []runner.JobResult) error {
	if o.TraceDir == "" || o.Obs == nil {
		return nil
	}
	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return err
	}
	for _, r := range res {
		first := r.First()
		if first == nil || first.Trace == nil {
			continue
		}
		name := traceFileName(r.Job.Label, r.Index)
		f, err := os.Create(filepath.Join(o.TraceDir, name))
		if err != nil {
			return err
		}
		werr := first.Trace.WriteJSONL(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// traceFileName maps a job label to a safe, unique file name: every
// byte outside [A-Za-z0-9.-] becomes '_', and the job index prefixes
// the name so two jobs with colliding labels never overwrite each
// other's trace.
func traceFileName(label string, index int) string {
	b := []byte(label)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-':
		default:
			b[i] = '_'
		}
	}
	return fmt.Sprintf("%03d-%s.jsonl", index, b)
}

// run executes a single experiment's plan on its own batch.
func (o Options) run(p plan) (*Table, error) {
	res, err := o.execute(p.num, p.jobs)
	if err != nil {
		return nil, err
	}
	return p.render(res)
}

// oneRoot is the topology on which every scheme is well defined.
func oneRoot() topology.Config {
	cfg := topology.DefaultConfig()
	cfg.Roots = 1
	return cfg
}

// perSecond aggregates a registry counter as a rate over the run's
// virtual duration.
func perSecond(r runner.JobResult, counter string) runner.Stat {
	return r.Stat(func(res *core.Result) float64 {
		return float64(res.Registry.Counter(counter).Value()) / res.Config.Duration.Seconds()
	})
}

// E1MobileIPProcedures reproduces Fig 2.2: registration and triangle
// routing through HA and FA, reporting the registration latency and
// tunnelling overhead the later experiments improve on.
func E1MobileIPProcedures(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e1Plan(opt))
}

func e1Plan(opt Options) plan {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMobileIP
	cfg.Topology = oneRoot()
	cfg.Duration = opt.scale(30 * time.Second)
	cfg.NumMNs = 4
	cfg.Mobility = core.MobilityStatic
	return plan{
		num:  1,
		jobs: []runner.Job{{Label: "mip-procedures", Config: cfg}},
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E1",
				Title:  "Mobile IP procedures (Fig 2.2): registration latency and tunnel overhead",
				Header: []string{"metric", "value"},
			}
			r := res[0]
			t.AddRow("registration latency (mean)", fmtStatDur(r.HistMean("mip.registration.latency")))
			t.AddRow("registration latency (p95)", fmtStatDur(r.HistQuantile("mip.registration.latency", 0.95)))
			t.AddRow("registrations", fmtStatI(r.HistCount("mip.registration.latency")))
			intercepts := r.Counter("mip.ha.intercepts")
			t.AddRow("HA intercepts (tunnelled packets)", fmtStatI(intercepts))
			if intercepts.Mean > 0 {
				overhead := r.Stat(func(res *core.Result) float64 {
					n := res.Registry.Counter("mip.ha.intercepts").Value()
					if n == 0 {
						return 0
					}
					return float64(res.Registry.Counter("mip.tunnel.overhead_bytes").Value() / n)
				})
				t.AddRow("tunnel overhead per packet", fmtStatB(overhead))
			}
			t.AddRow("delivery loss", fmtStatPct(r.LossRate()))
			t.AddRow("signaling messages", fmtStatI(r.SignalingMsgs()))
			t.AddNote("static MNs: losses, if any, come from registration windows only")
			return t, nil
		},
	}
}

// E2CellularIPHandoff reproduces Fig 2.3/2.4: hard vs semisoft handoff
// loss as crossing rate grows.
func E2CellularIPHandoff(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e2Plan(opt))
}

func e2Plan(opt Options) plan {
	type meta struct {
		speed  float64
		scheme core.Scheme
	}
	var jobs []runner.Job
	var metas []meta
	for _, speed := range []float64{5, 10, 20} {
		for _, scheme := range []core.Scheme{core.SchemeCellularIPHard, core.SchemeCellularIPSemisoft} {
			cfg := core.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Topology = oneRoot()
			cfg.Duration = opt.scale(3 * time.Minute)
			cfg.NumMNs = 6
			cfg.Mobility = core.MobilityShuttle
			cfg.SpeedMPS = speed
			jobs = append(jobs, runner.Job{Label: fmt.Sprintf("%s@%gm/s", scheme, speed), Config: cfg})
			metas = append(metas, meta{speed, scheme})
		}
	}
	return plan{
		num:  2,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E2",
				Title:  "Cellular IP handoff (Fig 2.4): hard vs semisoft loss",
				Header: []string{"speed", "scheme", "handoffs", "loss", "stale drops", "bicast dups"},
			}
			for i, r := range res {
				m := metas[i]
				t.AddRow(fmtF(m.speed)+" m/s", string(m.scheme),
					fmtStatI(r.Handoffs()),
					fmtStatPct(r.LossRate()),
					fmtStatI(r.Counter("cip.stale_air_drops")),
					fmtStatI(r.Counter("cip.bicast_duplicates")))
			}
			t.AddNote("expected shape: semisoft ~zero loss at every speed; hard loses one crossover window per handoff")
			return t, nil
		},
	}
}

// E3LocationManagement reproduces Fig 3.1's hierarchical tables:
// signalling cost versus population and the TTL ablation (D1).
func E3LocationManagement(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e3Plan(opt))
}

func e3Plan(opt Options) plan {
	dur := opt.scale(time.Minute)
	type meta struct {
		n     int
		label string
	}
	var jobs []runner.Job
	var metas []meta
	add := func(n int, ttl time.Duration, label string) {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.SchemeMultiTier
		cfg.Topology = oneRoot()
		cfg.Duration = dur
		cfg.NumMNs = n
		cfg.Mobility = core.MobilityShuttle
		cfg.SpeedMPS = 10
		cfg.TableTTL = ttl
		jobs = append(jobs, runner.Job{Label: fmt.Sprintf("%d-MNs-ttl-%s", n, label), Config: cfg})
		metas = append(metas, meta{n, label})
	}
	for _, n := range []int{4, 8, 16} {
		add(n, 0, "default")
	}
	// D1 ablation: a TTL shorter than the 1 s location refresh lets
	// records lapse between refreshes, forcing paging floods.
	for _, ttl := range []time.Duration{500 * time.Millisecond, 3 * time.Second, 10 * time.Second} {
		add(8, ttl, ttl.String())
	}
	return plan{
		num:  3,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E3",
				Title:  "Location management (Fig 3.1): signalling vs population; table TTL ablation",
				Header: []string{"MNs", "table TTL", "location msgs/s", "control B/s", "loss", "pages"},
			}
			for i, r := range res {
				m := metas[i]
				t.AddRow(fmtI(m.n), m.label,
					fmtStatF(perSecond(r, "tier.location_msgs")),
					fmtStatF(perSecond(r, "tier.control_bytes")),
					fmtStatPct(r.LossRate()),
					fmtStatI(r.Counter("tier.pages")))
			}
			t.AddNote("signalling grows linearly with population; TTL below the refresh interval forces pages")
			return t, nil
		},
	}
}

// E4InterDomain reproduces Figs 3.2/3.3: the cost gap between same-upper
// and different-upper inter-domain handoffs.
func E4InterDomain(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e4Plan(opt))
}

func e4Plan(opt Options) plan {
	type meta struct{ label string }
	var jobs []runner.Job
	var metas []meta
	add := func(speed float64, label string) {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.SchemeMultiTier
		cfg.Topology = topology.DefaultConfig() // two roots
		cfg.Duration = opt.scale(20 * time.Minute)
		cfg.NumMNs = 6
		cfg.Mobility = core.MobilityShuttleDomains
		cfg.SpeedMPS = speed
		jobs = append(jobs, runner.Job{Label: label, Config: cfg})
		metas = append(metas, meta{label})
	}
	// Fast MNs ride the macro/root tier and cross root boundaries
	// (Fig 3.3: different upper BS, home network involved).
	add(25, "fast (25 m/s)")
	// Slow MNs camp on macro cells and cross domain boundaries under the
	// shared root (Fig 3.2: same upper BS, no home involvement).
	add(11, "slow (11 m/s)")
	return plan{
		num:  4,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E4",
				Title:  "Inter-domain handoff (Figs 3.2/3.3): same vs different upper BS",
				Header: []string{"workload", "same-upper", "diff-upper", "intra", "adm lat", "HA regs", "redirects", "loss"},
			}
			for i, r := range res {
				intra := r.Stat(func(res *core.Result) float64 {
					return float64(res.Registry.Counter("tier.handoffs.intra/micro-macro").Value() +
						res.Registry.Counter("tier.handoffs.intra/macro-micro").Value() +
						res.Registry.Counter("tier.handoffs.intra/micro-micro").Value())
				})
				t.AddRow(metas[i].label,
					fmtStatI(r.Counter("tier.handoffs.inter/same-upper")),
					fmtStatI(r.Counter("tier.handoffs.inter/diff-upper")),
					fmtStatI(intra),
					fmtStatDur(r.HistMean("tier.handoff.latency")),
					fmtStatI(r.Counter("tier.anchor.registrations")),
					fmtStatI(r.Counter("tier.redirects")),
					fmtStatPct(r.LossRate()))
			}
			t.AddNote("only diff-upper handoffs register with the home network; same-upper re-points the shared root")
			return t, nil
		},
	}
}

// E5IntraDomain reproduces Fig 3.4: the three intra-domain cases.
func E5IntraDomain(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e5Plan(opt))
}

func e5Plan(opt Options) plan {
	type meta struct{ label string }
	var jobs []runner.Job
	var metas []meta
	add := func(mob core.MobilityKind, speed float64, label string) {
		cfg := core.DefaultConfig()
		cfg.Scheme = core.SchemeMultiTier
		cfg.Topology = oneRoot()
		cfg.Duration = opt.scale(10 * time.Minute)
		cfg.NumMNs = 6
		cfg.Mobility = mob
		cfg.SpeedMPS = speed
		jobs = append(jobs, runner.Job{Label: label, Config: cfg})
		metas = append(metas, meta{label})
	}
	// Fig 3.4 case c: slow shuttle between adjacent micro cells.
	add(core.MobilityShuttle, 8, "micro shuttle (8 m/s)")
	// Fig 3.4 cases a+b: shuttle between a micro centre and the macro
	// centre — repeatedly leaving and re-entering micro coverage.
	add(core.MobilityShuttleTier, 10, "tier shuttle (10 m/s)")
	return plan{
		num:  5,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E5",
				Title:  "Intra-domain handoff (Fig 3.4): micro-micro / micro-macro / macro-micro",
				Header: []string{"workload", "micro-micro", "micro-macro", "macro-micro", "loss", "drained"},
			}
			for i, r := range res {
				t.AddRow(metas[i].label,
					fmtStatI(r.Counter("tier.handoffs.intra/micro-micro")),
					fmtStatI(r.Counter("tier.handoffs.intra/micro-macro")),
					fmtStatI(r.Counter("tier.handoffs.intra/macro-micro")),
					fmtStatPct(r.LossRate()),
					fmtStatI(r.Counter("tier.rs.drained")))
			}
			t.AddNote("row 1 exercises case c (micro→micro); row 2 alternates cases b and a (micro→macro→micro)")
			return t, nil
		},
	}
}

// E6SchemeComparison is the headline comparison behind §4's claims.
func E6SchemeComparison(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e6Plan(opt))
}

func e6Plan(opt Options) plan {
	type meta struct {
		speed  float64
		scheme core.Scheme
	}
	var jobs []runner.Job
	var metas []meta
	for _, speed := range []float64{10, 25} {
		for _, scheme := range core.Schemes() {
			cfg := core.DefaultConfig()
			cfg.Scheme = scheme
			cfg.Topology = oneRoot()
			cfg.Duration = opt.scale(20 * time.Minute)
			cfg.NumMNs = 4
			cfg.Mobility = core.MobilityShuttleDomains
			cfg.SpeedMPS = speed
			cfg.Traffic = core.TrafficConfig{Voice: true, Video: true}
			jobs = append(jobs, runner.Job{Label: fmt.Sprintf("%s@%gm/s", scheme, speed), Config: cfg})
			metas = append(metas, meta{speed, scheme})
		}
	}
	return plan{
		num:  6,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E6",
				Title:  "Scheme comparison (Fig 4.1 claims): loss / latency / signalling per scheme",
				Header: []string{"speed", "scheme", "loss", "mean delay", "p95 delay", "handoffs", "signal msgs"},
			}
			for i, r := range res {
				m := metas[i]
				t.AddRow(fmtF(m.speed), string(m.scheme),
					fmtStatPct(r.LossRate()),
					fmtStatDur(r.MeanLatency()),
					fmtStatDur(r.P95Latency()),
					fmtStatI(r.Handoffs()),
					fmtStatI(r.SignalingMsgs()))
			}
			t.AddNote("expected shape: multitier-rsmc <= cip-semisoft < cip-hard < mobile-ip on loss")
			return t, nil
		},
	}
}

// E7ResourceSwitching isolates §4's "resource switching management to
// reduce data packet loss" and the guard-channel ablation (D3).
func E7ResourceSwitching(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e7Plan(opt))
}

func e7Plan(opt Options) plan {
	type meta struct {
		rs    bool
		guard int
	}
	var jobs []runner.Job
	var metas []meta
	for _, rs := range []bool{true, false} {
		for _, guard := range []int{0, 4} {
			cfg := core.DefaultConfig()
			cfg.Scheme = core.SchemeMultiTier
			cfg.Topology = oneRoot()
			cfg.Duration = opt.scale(6 * time.Minute)
			cfg.NumMNs = 8
			cfg.Mobility = core.MobilityShuttle
			cfg.SpeedMPS = 8 // below the macro-speed threshold: micro churn
			cfg.ResourceSwitching = rs
			cfg.GuardChannels = guard
			cfg.Traffic = core.TrafficConfig{Voice: true, Video: true}
			jobs = append(jobs, runner.Job{Label: fmt.Sprintf("rs=%v guard=%d", rs, guard), Config: cfg})
			metas = append(metas, meta{rs, guard})
		}
	}
	return plan{
		num:  7,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E7",
				Title:  "Resource switching (§4): buffering vs loss; guard channels",
				Header: []string{"resource switching", "guard", "loss", "buffered", "drained", "stale drops", "rejects"},
			}
			for i, r := range res {
				m := metas[i]
				t.AddRow(fmt.Sprintf("%v", m.rs), fmtI(m.guard),
					fmtStatPct(r.LossRate()),
					fmtStatI(r.Counter("tier.rs.buffered")),
					fmtStatI(r.Counter("tier.rs.drained")),
					fmtStatI(r.Counter("tier.stale_air_drops")),
					fmtStatI(r.Counter("tier.handoff.rejects")))
			}
			t.AddNote("with switching on, in-flight packets are buffered and drained instead of dropped")
			return t, nil
		},
	}
}

// E8PagingAndRSMCLoad measures idle-mode signalling and RSMC load (§4:
// "the load of RSMC is very low").
func E8PagingAndRSMCLoad(opt Options) (*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	return opt.run(e8Plan(opt))
}

func e8Plan(opt Options) plan {
	dur := opt.scale(2 * time.Minute)
	type meta struct {
		n    int
		mode string
	}
	var jobs []runner.Job
	var metas []meta
	for _, n := range []int{4, 8, 16} {
		for _, active := range []bool{true, false} {
			cfg := core.DefaultConfig()
			cfg.Scheme = core.SchemeMultiTier
			cfg.Topology = oneRoot()
			cfg.Duration = dur
			cfg.NumMNs = n
			cfg.Mobility = core.MobilityStatic
			mode := "active"
			if active {
				cfg.Traffic = core.TrafficConfig{Voice: true}
			} else {
				// Idle population with an occasional datagram that must
				// be paged in.
				cfg.Traffic = core.TrafficConfig{DataMeanInterval: 20 * time.Second}
				mode = "idle"
			}
			jobs = append(jobs, runner.Job{Label: fmt.Sprintf("%d-MNs-%s", n, mode), Config: cfg})
			metas = append(metas, meta{n, mode})
		}
	}
	return plan{
		num:  8,
		jobs: jobs,
		render: func(res []runner.JobResult) (*Table, error) {
			t := &Table{
				ID:     "E8",
				Title:  "Paging and RSMC load (§2.2.2, §4): idle vs active signalling",
				Header: []string{"MNs", "mode", "signal msgs/s", "pages", "page broadcasts", "RSMC ops/s"},
			}
			for i, r := range res {
				m := metas[i]
				rsmcRate := r.Stat(func(res *core.Result) float64 {
					var ops uint64
					for d := 0; d < 8; d++ {
						ops += res.Registry.Counter(fmt.Sprintf("rsmc.%d.operations", d)).Value()
					}
					return float64(ops) / res.Config.Duration.Seconds()
				})
				sigRate := r.Stat(func(res *core.Result) float64 {
					return float64(res.Summary.SignalingMsgs) / res.Config.Duration.Seconds()
				})
				t.AddRow(fmtI(m.n), m.mode,
					fmtStatF(sigRate),
					fmtStatI(r.Counter("tier.pages")),
					fmtStatI(r.Counter("tier.page_broadcasts")),
					fmtStatF(rsmcRate))
			}
			t.AddNote("idle mode trades paging floods on arrival for a ~10x lower signalling rate")
			return t, nil
		},
	}
}
