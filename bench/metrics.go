package main

// metricDef is one metric of BENCHMARK.json. Bound is set on the
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change is a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	// Simulated MN-seconds per second over full runs of every cell, at
	// the reference host's speed.
	{"mn_s_per_s", "MN-s/s", "higher", 0.25},
	// Config to first event, summed over cells: capacity.New plus
	// core.Run stopped at 1 ns, at the reference host's speed.
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers. Times and bytes are per
// pass over the workload's cells; counts are exact per pass.
var perLayer = append(layerDefs(), []metricDef{
	{"host.mn_s_per_s", "MN-s/s", "higher", 0},
	{"host.setup_s", "s", "lower", 0},
	{"host.ref_s", "s", "lower", 0},
	{"process.cpu_s", "s", "lower", 0},
	{"capacity.new_s", "s", "lower", 0},
	{"topology.build_s", "s", "lower", 0},
	{"fleet.assign_s", "s", "lower", 0},
	{"gc.alloc_mb", "MiB", "lower", 0},
	{"gc.alloc_objects", "count", "lower", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.cpu_s", "s", "lower", 0},
	{"core.data_sent", "count", "higher", 0},
	{"core.data_delivered", "count", "higher", 0},
	{"core.delivery_ratio", "ratio", "higher", 0},
	{"core.handoffs", "count", "lower", 0},
	{"core.signal_msgs", "count", "lower", 0},
	{"core.signal_bytes", "B", "lower", 0},
	{"multitier.admit_ratio", "ratio", "higher", 0},
	{"mobileip.reg_retries", "count", "lower", 0},
	{"mobileip.ha_intercepts", "count", "lower", 0},
	{"cellularip.route_updates", "count", "lower", 0},
	{"cellularip.bicast_duplicates", "count", "lower", 0},
	{"degrade.deferred", "count", "lower", 0},
	{"degrade.preempted", "count", "lower", 0},
	{"degrade.paced", "count", "lower", 0},
	{"faults.recovered_ratio", "ratio", "higher", 0},
}...)

// layerDefs is a CPU-time and an allocated-bytes metric per layer, from
// the profiled run.
func layerDefs() []metricDef {
	var out []metricDef
	for _, l := range layerNames {
		out = append(out,
			metricDef{l + ".cpu_s", "s", "lower", 0},
			metricDef{l + ".alloc_mb", "MiB", "lower", 0})
	}
	return out
}

// defByName indexes every metric definition.
var defByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.Name] = d
	}
	return m
}()
