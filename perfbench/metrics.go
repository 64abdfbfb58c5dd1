package main

// The declared metrics. BENCHMARK.json lists the same names and units;
// the package's tests hold the two in step and check that every run
// reports exactly these.

// endToEnd are reported by every untraced run of every workload. Each
// applies to all four workloads and is never 0, so the gated set is the
// kind-agnostic one; latencies per op kind are in perLayer.
var endToEnd = []declared{
	{"ops_per_s", "1/s", "higher"},
	{"op.p50_us", "us", "lower"},
	{"op.p90_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// perLayer are reported by every traced run, 0 where a workload does not
// use the layer.
var perLayer = []declared{
	// Client-visible latency, all ops and per op kind, from the untraced
	// half of the traced run, with sample counts. The p99s are here, not
	// gated: on a shared 2-core machine they do not repeat within 25%.
	{"op.p99_us", "us", "lower"},
	{"read.p50_us", "us", "lower"},
	{"read.p99_us", "us", "lower"},
	{"read.samples", "count", "higher"},
	{"write.p50_us", "us", "lower"},
	{"write.p99_us", "us", "lower"},
	{"write.samples", "count", "higher"},
	{"sync.p50_us", "us", "lower"},
	{"sync.p99_us", "us", "lower"},
	{"sync.samples", "count", "higher"},
	{"meta.p50_us", "us", "lower"},
	{"meta.p99_us", "us", "lower"},
	{"meta.samples", "count", "higher"},
	{"failed_ratio", "ratio", "lower"},
	{"trace.overhead_ops_per_s", "1/s", "lower"},

	{"client.self_us", "us", "lower"},
	{"client.ctrl_per_op", "count", "lower"},
	{"client.san_per_op", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_op", "count", "lower"},
	{"cache.invalidations_per_op", "count", "lower"},
	{"cache.prefetch_useful_ratio", "ratio", "higher"},
	{"core.keepalives_per_tau", "count", "lower"},
	{"server.lease_state_bytes", "bytes", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.residence_us", "us", "lower"},
	{"server.demands_per_op", "count", "lower"},
	{"rpcnet.ctrl_rtt_us", "us", "lower"},
	{"rpcnet.ctrl_transit_us", "us", "lower"},
	{"rpcnet.ctrl_bytes_per_op", "bytes", "lower"},
	{"rpcnet.san_rtt_us", "us", "lower"},
	{"rpcnet.san_transit_us", "us", "lower"},
	{"disk.handler_us", "us", "lower"},
	{"disk.blocks_per_batch", "count", "higher"},
	{"blockstore.writev_us", "us", "lower"},
	{"blockstore.fsync_us", "us", "lower"},
	{"blockstore.fsyncs_per_sync", "count", "lower"},
	{"blockstore.read_us", "us", "lower"},
	{"sim.events_per_op", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"simnet.msgs_per_op", "count", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"ledger.unattributed_share", "ratio", "lower"},
}

type declared struct{ name, unit, better string }

// complete fills every declared per-layer metric m lacks with 0.
func complete(m map[string]metric) map[string]metric {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{0, d.unit}
		}
	}
	return m
}
