package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestManifestMatchesMetrics keeps the two
// in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // simulated or counted: repeats exactly for a fixed seed
}

// endToEnd are the metrics a user of the simulator sees, reported on
// every workload. Host metrics are times of this process; sim metrics
// are simulated quantities, exact for a fixed seed, so -compare holds
// them to == while BENCHMARK.json can only bound them across seeds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_cycles_per_s", unit: "cycles/s", better: "higher", bound: 0.25},
	{name: "flit_hops_per_s", unit: "flits/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "sim_latency_mean_ns", unit: "ns", better: "lower", bound: 0.20, exact: true},
	{name: "sim_latency_p99_ns", unit: "ns", better: "lower", bound: 0.15, exact: true},
	{name: "sim_accepted_frac", unit: "fraction", better: "higher", bound: 0.15, exact: true},
}

// perLayer are the metrics of single layers (packages under internal/),
// reported by a traced run. Times are host seconds and informational;
// counts repeat exactly for a fixed seed. A metric that does not apply
// to a workload reads 0 there.
var perLayer = []metricDef{
	// network: construction, warm-up, drain.
	{name: "network.new_s", unit: "s", better: "lower"},
	{name: "network.warmup_s", unit: "s", better: "lower"},
	{name: "network.drain_s", unit: "s", better: "lower"},
	{name: "network.drain_cycles", unit: "cycles", better: "lower", exact: true},
	// endpoint.
	{name: "endpoint.step_s", unit: "s", better: "lower"},
	{name: "endpoint.step_frac", unit: "fraction", better: "lower"},
	{name: "endpoint.injected_pkts", unit: "count", better: "higher", exact: true},
	{name: "endpoint.delivered_pkts", unit: "count", better: "higher", exact: true},
	{name: "endpoint.retransmits", unit: "count", better: "lower", exact: true},
	{name: "endpoint.dups_suppressed", unit: "count", better: "lower", exact: true},
	// core: the switch.
	{name: "core.switch_step_s", unit: "s", better: "lower"},
	{name: "core.switch_step_frac", unit: "fraction", better: "lower"},
	{name: "core.ns_per_switch_cycle", unit: "ns", better: "lower"},
	{name: "core.ns_per_flit_hop", unit: "ns", better: "lower"},
	{name: "core.flits_switched", unit: "count", better: "higher", exact: true},
	{name: "core.flits_sent", unit: "count", better: "higher", exact: true},
	{name: "core.col_flits", unit: "count", better: "higher", exact: true},
	{name: "core.tile_grants", unit: "count", better: "higher", exact: true},
	{name: "core.credit_stall_cycles", unit: "cycles", better: "lower", exact: true},
	{name: "core.ecn_marks", unit: "count", better: "lower", exact: true},
	{name: "core.sideband_msgs", unit: "count", better: "lower", exact: true},
	// sim: the executor, from its stall profiler.
	{name: "sim.work_frac", unit: "fraction", better: "higher"},
	{name: "sim.barrier_wait_frac", unit: "fraction", better: "lower"},
	{name: "sim.epoch_drain_frac", unit: "fraction", better: "lower"},
	{name: "sim.serial_hooks_frac", unit: "fraction", better: "lower"},
	{name: "sim.imbalance_frac", unit: "fraction", better: "lower"},
	{name: "sim.cycles_per_sync", unit: "cycles", better: "higher"},
	// buffer: stash pools and parity groups.
	{name: "buffer.stash_stores", unit: "count", better: "higher", exact: true},
	{name: "buffer.stash_retrieves", unit: "count", better: "higher", exact: true},
	{name: "buffer.stash_full_stalls", unit: "cycles", better: "lower", exact: true},
	{name: "buffer.stash_resident_flits", unit: "count", better: "lower", exact: true},
	{name: "buffer.parity_groups_sealed", unit: "count", better: "higher", exact: true},
	{name: "buffer.stash_reconstructed", unit: "count", better: "higher", exact: true},
	// fault: injected faults and the recovery ladder.
	{name: "fault.pkts_dropped", unit: "count", better: "lower", exact: true},
	{name: "fault.stash_copies_lost", unit: "count", better: "lower", exact: true},
	{name: "fault.recovered_pkts", unit: "count", better: "higher", exact: true},
	{name: "fault.recovery_mean_ns", unit: "ns", better: "lower", exact: true},
	// trace and tracegen.
	{name: "trace.replay_run_s", unit: "s", better: "lower"},
	{name: "trace.ns_per_sim_cycle", unit: "ns", better: "lower"},
	{name: "trace.msgs", unit: "count", better: "higher", exact: true},
	{name: "trace.sim_runtime_cycles", unit: "cycles", better: "lower", exact: true},
	{name: "tracegen.generate_s", unit: "s", better: "lower"},
	// snapshot: the checkpoint codec.
	{name: "snapshot.encode_s_min", unit: "s", better: "lower"},
	{name: "snapshot.encode_s_med", unit: "s", better: "lower"},
	{name: "snapshot.decode_s_med", unit: "s", better: "lower"},
	{name: "snapshot.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "snapshot.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "snapshot.bytes", unit: "bytes", better: "lower", exact: true},
	// Go runtime, over the timed region.
	{name: "go.allocs_per_kcycle", unit: "count", better: "lower"},
	{name: "go.bytes_per_kcycle", unit: "bytes", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	// the benchmark itself.
	{name: "bench.traced_wall_s", unit: "s", better: "lower"},
	{name: "bench.raw_wall_s", unit: "s", better: "lower"},
	{name: "bench.raw_setup_s", unit: "s", better: "lower"},
	{name: "bench.self_s", unit: "s", better: "lower"},
	{name: "bench.host_slowdown", unit: "ratio", better: "lower"},
	// Kernels: bench-owned loops over single package functions.
	{name: "buffer.damq_push_pop_ns", unit: "ns", better: "lower"},
	{name: "buffer.stash_put_delete_ns", unit: "ns", better: "lower"},
	{name: "buffer.stash_retr_ns", unit: "ns", better: "lower"},
	{name: "buffer.parity_store_delete_ns", unit: "ns", better: "lower"},
	{name: "arb.rr_grantmask_ns", unit: "ns", better: "lower"},
	{name: "arb.separable_allocate_ns", unit: "ns", better: "lower"},
	{name: "core.link_flit_ns", unit: "ns", better: "lower"},
	{name: "core.link_credit_ns", unit: "ns", better: "lower"},
	{name: "route.route_ns", unit: "ns", better: "lower"},
	{name: "proto.flit_codec_ns", unit: "ns", better: "lower"},
	{name: "traffic.uniform_next_ns", unit: "ns", better: "lower"},
	{name: "stats.hist_add_ns", unit: "ns", better: "lower"},
}

func defByName(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
