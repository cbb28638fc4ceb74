package main

// kind says where a metric is reported.
type kind int

const (
	// endToEnd metrics are what a user of the simulator sees, measured
	// with all tracing off; each carries a regression bound.
	endToEnd kind = iota
	// perLayer metrics come from the traced run; they have no bound.
	perLayer
	// extra metrics are written to reports for compare only.
	extra
)

// metricDef declares one metric. BENCHMARK.json lists the endToEnd and
// perLayer ones; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	kind   kind
	// bound is the share of the parent's median by which an endToEnd
	// metric may get worse before a change counts as a regression.
	bound float64
	// exact marks simulated metrics: deterministic, so a change either
	// leaves them equal or changes the simulation.
	exact bool
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

func metricDefs() []metricDef {
	defs := []metricDef{
		{name: "segment_min_ms", unit: "ms", kind: endToEnd, bound: 0.25},
		{name: "setup_s", unit: "s", kind: endToEnd, bound: 0.25},
		{name: "heap_mb", unit: "MB", kind: endToEnd, bound: 0.05},

		{name: "segment_ms", unit: "ms", kind: extra},
		{name: "sim_khz", unit: "kHz", higher: true, kind: extra},
		{name: "fail_frac", unit: "frac", kind: extra, exact: true},
	}
	host := func(name, unit string, higher bool) {
		defs = append(defs, metricDef{name: name, unit: unit, higher: higher, kind: perLayer})
	}
	simulated := func(name, unit string, higher bool) {
		defs = append(defs, metricDef{name: name, unit: unit, higher: higher, kind: perLayer, exact: true})
	}
	for _, l := range layerNames {
		host(l+".host_ns_per_cycle", "ns/cycle", false)
	}
	host("sim.host_ns_per_cycle", "ns/cycle", false)
	host("sim.trace_overhead_pct", "%", false)
	host("sim.trace_accounted_pct", "%", true)
	host("sim.parallel_speedup", "x", true)
	host("cluster.window_ns_per_cycle", "ns/cycle", false)
	host("cluster.barrier_ns_per_cycle", "ns/cycle", false)
	host("cluster.barrier_share", "frac", false)
	host("cluster.wait_share", "frac", false)
	host("sim.new_ms", "ms", false)
	host("asm.assemble_ms", "ms", false)
	host("sim.warm_ms", "ms", false)
	for _, id := range figureIDs {
		host("bench.fig."+id+"_ms", "ms/regen", false)
	}
	host("sim.allocs_per_segment", "count", false)
	host("sim.gc_per_segment", "count", false)

	simulated("cpu.ipc", "ratio", true)
	for _, b := range cpiBuckets {
		simulated("cpu.cpi."+b.String(), "frac", b.String() == "commit")
	}
	simulated("uncbuf.stall_full_frac", "frac", false)
	simulated("uncbuf.coalesce_ratio", "ratio", true)
	simulated("core.flush_ok_ratio", "ratio", true)
	simulated("core.stall_busy_frac", "frac", false)
	simulated("bus.util", "frac", true)
	simulated("bus.bytes_per_txn", "bytes", true)
	simulated("bus.bytes_per_cycle", "bytes/cycle", true)
	simulated("cache.l1d_miss_ratio", "ratio", false)
	simulated("cluster.pkts_per_kcycle", "1/kcycle", true)
	simulated("device.nic_packets_retained", "count", false)
	simulated("device.nic_dropped_descs", "count", false)
	simulated("device.nic_rx_highwater", "words", false)
	simulated("loadgen.req_per_kcycle", "1/kcycle", true)
	simulated("loadgen.p50_cycles", "cycles", false)
	simulated("loadgen.p99_cycles", "cycles", false)
	simulated("loadgen.outstanding_end", "count", false)
	return defs
}

// defsByName indexes metricDefs.
func defsByName() map[string]metricDef {
	out := make(map[string]metricDef)
	for _, d := range metricDefs() {
		out[d.name] = d
	}
	return out
}
