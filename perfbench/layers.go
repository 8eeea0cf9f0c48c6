package main

import "repro/internal/experiments"

// layerMetric is one per-layer metric of the traced run. Every traced
// run reports every one; a layer the workload's timed phase does not
// exercise reads 0. METRICS.md says which end-to-end metric each is
// expected to move, and on which workload.
type layerMetric struct {
	name string
	unit string
}

var layerMetrics = append([]layerMetric{
	{"gtpsim.frames", "count"},
	{"gtpsim.next_ns_per_frame", "ns"},
	{"pkt.decode_ns_per_frame", "ns"},
	{"dpi.classify_ns_per_call", "ns"},
	{"dpi.classified_share", "ratio"},
	{"probe.handle_ns_per_frame", "ns"},
	{"probe.run_self_s", "s"},
	{"probe.observations", "count"},
	{"probe.shard_skew", "ratio"},
	{"rollup.observe_ns_per_obs", "ns"},
	{"rollup.seals", "count"},
	{"rollup.finish_ms", "ms"},
	{"rollup.write_mb_per_s", "MB/s"},
	{"rollup.snapshot_bytes", "bytes"},
	{"rollup.read_mb_per_s", "MB/s"},
	{"rollup.decode_entry_mb_per_s", "MB/s"},
	{"epochwire.epoch_durable_ms_p50", "ms"},
	{"epochwire.epoch_durable_ms_p99", "ms"},
	{"epochwire.seal_hook_us_p50", "us"},
	{"epochwire.seal_hook_us_p99", "us"},
	{"epochwire.spool_bytes", "bytes"},
	{"epochwire.spool_sync_ms", "ms"},
	{"epochwire.ack_rtt_ms_p50", "ms"},
	{"epochwire.ack_rtt_ms_p99", "ms"},
	{"epochwire.wire_bytes", "bytes"},
	{"epochwire.resends", "count"},
	{"epochwire.agg_turnaround_ms_p50", "ms"},
	{"epochwire.agg_turnaround_ms_p99", "ms"},
	{"epochwire.agg_persists", "count"},
	{"epochwire.agg_persist_ms", "ms"},
	{"epochwire.agg_write_amplification", "ratio"},
	{"epochwire.finish_ms", "ms"},
	{"epochwire.agg_snapshot_ms", "ms"},
	{"catalog.open_ms", "ms"},
	{"catalog.epochs_decoded_share", "ratio"},
	{"catalog.files_pruned_share", "ratio"},
	{"catalog.cells_decoded", "count"},
	{"measured.load_ms", "ms"},
	{"kshape.cluster_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}, experimentMetrics()...)

// experimentMetrics is one experiments.<id>_s metric per registered
// runner, in registry order.
func experimentMetrics() []layerMetric {
	var out []layerMetric
	for _, r := range experiments.All() {
		out = append(out, layerMetric{"experiments." + r.ID + "_s", "s"})
	}
	return out
}
