// Package runner executes batches of scenario configurations across a
// worker pool. Every core.Run owns its own scheduler, metrics registry
// and RNG, so runs are independent and a batch parallelises perfectly
// across GOMAXPROCS workers.
//
// Determinism is preserved under parallelism: the seed of every run is a
// pure function of (BaseSeed, job index, replication index), so the same
// batch produces bit-identical results whether it executes on one worker
// or sixteen, and replications are statistically independent streams
// that any session can reproduce from the base seed alone.
package runner

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Job is one scenario configuration to execute. The runner overwrites
// Config.Seed per replication with the deterministic derivation, so the
// caller-set seed is ignored.
type Job struct {
	// Label tags the job in error messages.
	Label string
	// Config is the scenario to run.
	Config core.Config
	// Seeds optionally pins the per-replication seeds; its length must
	// equal the batch's Reps. Batches that merge jobs from several
	// logical seed streams (the flattened experiment suite) use this to
	// reproduce exactly the seeds each stream would have derived on its
	// own; jobs without Seeds use the (BaseSeed, index, rep) derivation.
	Seeds []int64
}

// Options tune the pool.
type Options struct {
	// BaseSeed anchors the per-run seed derivation.
	BaseSeed int64
	// Reps is the replication count per job; 0 means 1.
	Reps int
	// Parallel is the worker count; 0 means GOMAXPROCS.
	Parallel int
	// Paired applies common random numbers: every job in the batch
	// shares one seed per replication (PairedSeed), so scheme
	// comparisons within a replication see identical mobility and
	// traffic draws and differences isolate the scheme under test.
	// Unpaired batches draw an independent seed per (job, replication).
	Paired bool
	// MeasureWorkers, when > 0, sets core.Config.MeasureWorkers on every
	// job that did not pin its own value: the per-scenario parallel
	// measurement phase. Results are byte-identical for any worker count,
	// so this is purely a throughput knob.
	MeasureWorkers int
	// Obs, when non-nil, arms deterministic tracing on every job that did
	// not pin its own Config.Obs. Each run owns a private trace (returned
	// on its Result), so tracing composes with the worker pool without
	// synchronisation.
	Obs *obs.Config
}

// ErrBadOptions reports a degenerate Options value.
var ErrBadOptions = errors.New("runner: invalid options")

func (o Options) normalized() (Options, error) {
	if o.Reps == 0 {
		o.Reps = 1
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Reps < 1 {
		return o, fmt.Errorf("%w: reps %d", ErrBadOptions, o.Reps)
	}
	if o.Parallel < 1 {
		return o, fmt.Errorf("%w: parallel %d", ErrBadOptions, o.Parallel)
	}
	return o, nil
}

// Seed derives the deterministic seed for replication rep of job. It is
// a splitmix64-style finalizer over the three coordinates: high-quality
// diffusion so that adjacent (job, rep) pairs land on uncorrelated
// generator states, and pure, so results never depend on scheduling.
func Seed(base int64, job, rep int) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15
	x = mix64(x + uint64(job)*0xbf58476d1ce4e5b9)
	x = mix64(x + uint64(rep)*0x94d049bb133111eb)
	return int64(x)
}

// PairedSeed derives the shared seed of replication rep under common
// random numbers. Replication 0 is the base seed itself, so a paired
// single-replication batch reproduces a plain sequential harness that
// passed the base seed straight to core.Run.
func PairedSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	return Seed(base, 0, rep)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// JobResult is one job's completed replication set.
type JobResult struct {
	Job   Job
	Index int
	// Seeds[r] is the derived seed of replication r.
	Seeds []int64
	// Runs[r] is the result of replication r.
	Runs []*core.Result
}

// Run executes every job with opt.Reps replications across opt.Parallel
// workers and returns one JobResult per job, in job order regardless of
// execution interleaving. A failed replication does not stop the batch;
// all failures are joined into the returned error (results for the
// surviving runs are still populated).
func Run(jobs []Job, opt Options) ([]JobResult, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	results := make([]JobResult, len(jobs))
	for i := range results {
		if n := len(jobs[i].Seeds); n != 0 && n != opt.Reps {
			return nil, fmt.Errorf("%w: job %d has %d pinned seeds for %d reps", ErrBadOptions, i, n, opt.Reps)
		}
		results[i] = JobResult{
			Job:   jobs[i],
			Index: i,
			Seeds: make([]int64, opt.Reps),
			Runs:  make([]*core.Result, opt.Reps),
		}
		for r := 0; r < opt.Reps; r++ {
			switch {
			case len(jobs[i].Seeds) > 0:
				results[i].Seeds[r] = jobs[i].Seeds[r]
			case opt.Paired:
				results[i].Seeds[r] = PairedSeed(opt.BaseSeed, r)
			default:
				results[i].Seeds[r] = Seed(opt.BaseSeed, i, r)
			}
		}
	}

	type task struct{ job, rep int }
	tasks := make(chan task)
	errs := make([]error, len(jobs)*opt.Reps)
	var wg sync.WaitGroup
	for w := 0; w < opt.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				// Each (job, rep) slot is written by exactly one worker.
				cfg := jobs[t.job].Config
				cfg.Seed = results[t.job].Seeds[t.rep]
				if cfg.MeasureWorkers == 0 {
					cfg.MeasureWorkers = opt.MeasureWorkers
				}
				if cfg.Obs == nil {
					cfg.Obs = opt.Obs
				}
				res, err := core.Run(cfg)
				if err != nil {
					label := jobs[t.job].Label
					if label == "" {
						label = string(cfg.Scheme)
					}
					errs[t.job*opt.Reps+t.rep] = fmt.Errorf("job %d (%s) rep %d: %w", t.job, label, t.rep, err)
					continue
				}
				results[t.job].Runs[t.rep] = res
			}
		}()
	}
	for j := range jobs {
		for r := 0; r < opt.Reps; r++ {
			tasks <- task{j, r}
		}
	}
	close(tasks)
	wg.Wait()
	return results, errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// Replication aggregation

// Stat summarises one metric across replications.
type Stat struct {
	Mean, Std, Min, Max float64
	// N is the replication count the stat was computed over.
	N int
}

// NewStat computes mean, sample standard deviation and range of vals.
func NewStat(vals []float64) Stat {
	s := Stat{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, v := range vals {
		sum += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var sq float64
		for _, v := range vals {
			d := v - s.Mean
			sq += d * d
		}
		s.Std = math.Sqrt(sq / float64(s.N-1))
	}
	return s
}

// First returns the first completed replication, or nil when every
// replication failed.
func (r JobResult) First() *core.Result {
	for _, run := range r.Runs {
		if run != nil {
			return run
		}
	}
	return nil
}

// Stat aggregates an arbitrary per-run extraction across the job's
// surviving replications.
func (r JobResult) Stat(f func(*core.Result) float64) Stat {
	vals := make([]float64, 0, len(r.Runs))
	for _, run := range r.Runs {
		if run != nil {
			vals = append(vals, f(run))
		}
	}
	return NewStat(vals)
}

// LossRate aggregates Summary.LossRate.
func (r JobResult) LossRate() Stat {
	return r.Stat(func(res *core.Result) float64 { return res.Summary.LossRate })
}

// MeanLatency aggregates Summary.MeanLatency in seconds.
func (r JobResult) MeanLatency() Stat {
	return r.Stat(func(res *core.Result) float64 { return res.Summary.MeanLatency.Seconds() })
}

// P95Latency aggregates Summary.P95Latency in seconds.
func (r JobResult) P95Latency() Stat {
	return r.Stat(func(res *core.Result) float64 { return res.Summary.P95Latency.Seconds() })
}

// Handoffs aggregates Summary.Handoffs.
func (r JobResult) Handoffs() Stat {
	return r.Stat(func(res *core.Result) float64 { return float64(res.Summary.Handoffs) })
}

// SignalingMsgs aggregates Summary.SignalingMsgs.
func (r JobResult) SignalingMsgs() Stat {
	return r.Stat(func(res *core.Result) float64 { return float64(res.Summary.SignalingMsgs) })
}

// SignalingBytes aggregates Summary.SignalingBytes.
func (r JobResult) SignalingBytes() Stat {
	return r.Stat(func(res *core.Result) float64 { return float64(res.Summary.SignalingBytes) })
}

// Counter aggregates a registry counter value.
func (r JobResult) Counter(name string) Stat {
	return r.Stat(func(res *core.Result) float64 { return float64(res.Registry.Counter(name).Value()) })
}

// HistMean aggregates a registry histogram's mean in seconds.
func (r JobResult) HistMean(name string) Stat {
	return r.Stat(func(res *core.Result) float64 { return res.Registry.Histogram(name).Mean().Seconds() })
}

// HistQuantile aggregates a registry histogram's p-quantile in seconds.
func (r JobResult) HistQuantile(name string, p float64) Stat {
	return r.Stat(func(res *core.Result) float64 { return res.Registry.Histogram(name).Quantile(p).Seconds() })
}

// HistCount aggregates a registry histogram's sample count.
func (r JobResult) HistCount(name string) Stat {
	return r.Stat(func(res *core.Result) float64 { return float64(res.Registry.Histogram(name).Count()) })
}
