package experiments

import (
	"fmt"

	"repro/internal/runner"
)

// The flattened E1–E8 suite the golden, the suite-shape test and the
// sequential-vs-parallel test run. cmd/mmscale -suite runs the
// experiments one at a time; All must render byte-identical tables to
// that.

// seeds returns the per-replication seed stream the experiment's jobs
// use: paired (common random numbers) within the experiment, offset by
// the experiment number — runner.PairedSeed per replication, the same
// derivation execute's Paired batch applies.
func (p plan) seeds(o Options) []int64 {
	s := make([]int64, o.Reps)
	for r := range s {
		s[r] = runner.PairedSeed(o.Seed+int64(p.num), r)
	}
	return s
}

// plans builds every experiment's plan in suite order.
func plans(opt Options) []plan {
	return []plan{
		e1Plan(opt), e2Plan(opt), e3Plan(opt), e4Plan(opt),
		e5Plan(opt), e6Plan(opt), e7Plan(opt), e8Plan(opt),
	}
}

// All runs every experiment in order. The whole suite is flattened into
// one global worker-pool batch: every scenario of every experiment is in
// flight together, so narrow experiments (E1's single job, E4/E5's pairs)
// no longer serialise the pool behind wide ones. Each job pins the seeds
// its experiment would derive on its own, so the flattened suite renders
// byte-identical tables to per-experiment execution at any worker count.
func All(opt Options) ([]*Table, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	ps := plans(opt)
	var flat []runner.Job
	for _, p := range ps {
		seeds := p.seeds(opt)
		for _, j := range p.jobs {
			j.Seeds = seeds
			flat = append(flat, j)
		}
	}
	res, err := runner.Run(flat, runner.Options{
		BaseSeed:       opt.Seed,
		Reps:           opt.Reps,
		Parallel:       opt.Parallel,
		MeasureWorkers: opt.MeasureWorkers,
		Obs:            opt.Obs,
	})
	out := make([]*Table, 0, len(ps))
	if err != nil {
		return out, fmt.Errorf("suite: %w", err)
	}
	if err := opt.writeTraces(res); err != nil {
		return out, fmt.Errorf("suite: %w", err)
	}
	idx := 0
	for _, p := range ps {
		sub := res[idx : idx+len(p.jobs)]
		idx += len(p.jobs)
		tbl, rerr := p.render(sub)
		if rerr != nil {
			return out, rerr
		}
		out = append(out, tbl)
	}
	return out, nil
}
