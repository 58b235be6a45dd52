package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// ScaleSweep parameterises E9: which populations and schemes to sweep,
// how long each scenario runs (scaled by Options.TimeScale like every
// experiment), and the fleet mix driving the population.
type ScaleSweep struct {
	// Populations is the ascending MN-count axis.
	Populations []int
	// Schemes are the mobility-management schemes compared at each
	// population.
	Schemes []core.Scheme
	// Duration is the virtual span of each scenario.
	Duration time.Duration
	// Spec is the population mix; every (population, scheme) cell runs
	// the same spec so differences isolate scheme and scale.
	Spec fleet.Spec
	// PerProfileSignalling adds location-update and paging attribution
	// columns to the per-profile QoE rows. Off by default so existing
	// pinned tables keep their exact bytes; cmd/mmscale -signalling and
	// the E10 matrix turn it on.
	PerProfileSignalling bool
}

// DefaultScaleSweep is the full sweep cmd/mmscale runs: 500 → 10k MNs
// under every scheme with the default urban mix.
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		Populations: []int{500, 1000, 2000, 5000, 10000},
		Schemes:     core.Schemes(),
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
}

// E9ScaleSweep measures per-profile QoE as the population grows: for
// each (population, scheme) cell it runs the fleet mix and reports the
// overall and per-profile loss, delivery delay and handoff rate. This is
// the paper's claims under load — the multi-tier scheme must hold its
// loss/latency advantage as the mobile population scales by 20x.
//
// E9 runs with a per-scenario packet arena and bounded per-profile
// aggregation (see metrics.Breakdown), so peak memory is set by the
// population and topology, not by the packet count: a 10k-MN cell holds
// no per-packet state.
//
// E9 is not part of the E1–E8 suite: its cost axis is population, not
// duration, so the golden E1–E8 suite stays byte-identical and scale
// runs are invoked deliberately (cmd/mmscale or the pinned golden E9
// test).
func E9ScaleSweep(opt Options, sw ScaleSweep) (*Table, error) {
	return runMatrix(opt, sw.matrix(), sw.table)
}

func (sw ScaleSweep) matrix() matrix {
	return matrix{num: 9, pops: sw.Populations, schemes: sw.Schemes, dur: sw.Duration, spec: sw.Spec}
}

func (sw ScaleSweep) table(cells []cell, res []runner.JobResult) *Table {
	header := []string{"MNs", "scheme", "profile", "mns", "speed", "loss", "mean delay", "p95 delay", "handoffs/MN"}
	if sw.PerProfileSignalling {
		header = append(header, "loc upd/MN", "pages")
	}
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("Scale sweep: per-profile QoE vs population (mix %s)", sw.Spec.String()),
		Header: header,
	}
	for i, r := range res {
		c := cells[i]
		all := []string{fmtI(c.n), string(c.scheme), "all", fmtI(c.n), "",
			fmtStatPct(r.LossRate()),
			fmtStatDur(r.MeanLatency()),
			fmtStatDur(r.P95Latency()),
			fmtStatF(r.Stat(func(res *core.Result) float64 {
				return float64(res.Summary.Handoffs) / float64(res.Config.NumMNs)
			}))}
		if sw.PerProfileSignalling {
			all = append(all, fleetSignallingCells(r, sw.Spec)...)
		}
		t.AddRow(all...)
		for _, p := range sw.Spec.Profiles {
			row := append([]string{"", "", p.Name}, profileQoECells(r, p.Name, sw.PerProfileSignalling)...)
			t.AddRow(row...)
		}
	}
	t.AddNote("loss is the undelivered fraction per class; only multitier-rsmc enforces QoS admission, so past cell capacity it sheds load at admission while the flat schemes (no admission model) keep delivering")
	t.AddNote("bounded memory: per-scenario packet arena + streaming per-profile aggregates, no per-packet retention")
	if sw.PerProfileSignalling {
		t.AddNote("loc upd/MN counts MN-originated location signalling (location/update messages, route/paging updates, registrations); pages counts network paging effort spent finding the class")
	}
	return t
}

// profileQoECells renders one profile's per-class cells for a
// scale-sweep table, from the population column onward: mns, speed,
// loss, mean/p95 delay, handoffs per MN, and — with signalling
// attribution on — location updates per MN and pages.
func profileQoECells(r runner.JobResult, name string, signalling bool) []string {
	bd := func(res *core.Result) *metrics.Breakdown {
		return res.Registry.Breakdown("fleet.profile." + name)
	}
	pop := r.Stat(func(res *core.Result) float64 { return float64(bd(res).Population) })
	cells := []string{
		fmtI(int(pop.Mean)),
		fmtStatF(r.Stat(func(res *core.Result) float64 {
			return bd(res).Speed.Mean()
		})),
		fmtStatPct(r.Stat(func(res *core.Result) float64 {
			b := bd(res)
			if b.Flows.Sent == 0 {
				return 0
			}
			rate := 1 - float64(b.Flows.Delivered)/float64(b.Flows.Sent)
			if rate < 0 {
				rate = 0
			}
			return rate
		})),
		fmtStatDur(r.Stat(func(res *core.Result) float64 {
			return bd(res).Latency.Mean().Seconds()
		})),
		fmtStatDur(r.Stat(func(res *core.Result) float64 {
			return bd(res).Latency.Quantile(0.95).Seconds()
		})),
		fmtStatF(r.Stat(func(res *core.Result) float64 {
			b := bd(res)
			if b.Population == 0 {
				return 0
			}
			return float64(b.Handoffs.Value()) / float64(b.Population)
		})),
	}
	if signalling {
		cells = append(cells,
			fmtStatF(r.Stat(func(res *core.Result) float64 {
				b := bd(res)
				if b.Population == 0 {
					return 0
				}
				return float64(b.LocationUpdates.Value()) / float64(b.Population)
			})),
			fmtStatI(r.Stat(func(res *core.Result) float64 {
				return float64(bd(res).Pages.Value())
			})))
	}
	return cells
}

// fleetSignallingCells aggregates the signalling attribution across
// every profile for a cell's "all" row.
func fleetSignallingCells(r runner.JobResult, spec fleet.Spec) []string {
	sum := func(f func(*metrics.Breakdown) float64) func(*core.Result) float64 {
		return func(res *core.Result) float64 {
			var total float64
			for _, p := range spec.Profiles {
				total += f(res.Registry.Breakdown("fleet.profile." + p.Name))
			}
			return total
		}
	}
	return []string{
		fmtStatF(r.Stat(func(res *core.Result) float64 {
			return sum(func(b *metrics.Breakdown) float64 {
				return float64(b.LocationUpdates.Value())
			})(res) / float64(res.Config.NumMNs)
		})),
		fmtStatI(r.Stat(sum(func(b *metrics.Breakdown) float64 {
			return float64(b.Pages.Value())
		}))),
	}
}
