package main

import "fmt"

// metricDef names one metric; the lists below are the ones BENCHMARK.json
// declares, in the same order.
type metricDef struct{ name, unit, better string }

// endToEnd are what a user of the daemon or the library sees. An op is one
// job (serve-*) or one check (check-heavy).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"success_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics, grouped by layer. A layer the
// workload never reaches reports 0.
var perLayer = []metricDef{
	{"server.submit_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"server.deliver_ms", "ms", "lower"},
	{"server.decode_wire_us", "us", "lower"},
	{"server.events_per_job", "count", "lower"},
	{"server.latency_p99_ms", "ms", "lower"},
	{"server.latency_samples", "count", "higher"},

	{"durable.fsyncs_per_job", "count", "lower"},
	{"durable.sync_busy_ms_per_job", "ms", "lower"},
	{"durable.write_busy_ms_per_job", "ms", "lower"},
	{"durable.bytes_written_per_job", "bytes", "lower"},
	{"durable.files_read_at_start", "count", "lower"},
	{"durable.failed_ops", "count", "lower"},

	{"rescache.request_key_us", "us", "lower"},
	{"explore.canonical_us", "us", "lower"},
	{"rescache.get_us", "us", "lower"},
	{"rescache.put_us", "us", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.errors", "count", "lower"},

	{"waitfree.decode_report_us", "us", "lower"},
	{"waitfree.encode_report_us", "us", "lower"},
	{"waitfree.report_bytes", "bytes", "lower"},

	{"explore.check_ms", "ms", "lower"},
	{"explore.nodes_entered", "count", "lower"},
	{"explore.memo_hits_per_node", "ratio", "higher"},
	{"explore.nodes_per_s", "1/s", "higher"},
	{"explore.allocs_per_node", "count", "lower"},
	{"explore.gc_cycles_per_check", "count", "lower"},
	{"explore.memo_spilled", "count", "lower"},
	{"explore.storage_retries", "count", "lower"},

	{"core.elimination_ms", "ms", "lower"},

	{"gen.repeat_share", "ratio", "higher"},
	{"gen.memoize_unset_share", "ratio", "higher"},
	{"gen.faulted_share", "ratio", "higher"},

	{"self.client_ms", "ms", "lower"},
	{"self.server_ms", "ms", "lower"},
	{"self.durable_ms", "ms", "lower"},
	{"self.explore_ms", "ms", "lower"},
	{"self.core_ms", "ms", "lower"},
	{"self.waitfree_ms", "ms", "lower"},
	{"self.replay_server_us", "us", "lower"},
	{"self.replay_rescache_us", "us", "lower"},
	{"self.replay_explore_us", "us", "lower"},
	{"self.replay_waitfree_us", "us", "lower"},
	{"self.replay_core_us", "us", "lower"},

	{"trace.overhead_p50_pct", "%", "lower"},
	{"trace.overhead_throughput_pct", "%", "lower"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// fill sets every metric of defs the run did not reach to 0.
func (m metrics) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0)
		}
	}
}

// only returns the metrics named in defs.
func (m metrics) only(defs []metricDef) metrics {
	out := metrics{}
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}
