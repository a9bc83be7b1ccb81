package main

import (
	"fmt"
	"sort"
)

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a run with -trace 0 reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"queries_per_s", "1/s"},
	{"alloc_bytes_per_query", "B"},
	{"allocs_per_query", "count"},
	{"live_heap_mb", "MB"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"write_bytes_per_update", "B"},
}

// perLayer is what a run with -trace 1 reports.
var perLayer = []metricDef{
	{"query.samples", "count"},
	{"update.samples", "count"},
	{"core.query_self_us", "us"},
	{"core.fetch_self_us", "us"},
	{"core.nodes_visited_per_query", "count"},
	{"core.early_stops_per_query", "count"},
	{"core.items_per_query", "count"},
	{"core.cut_reuse_frac", "ratio"},
	{"core.cut_full_fallbacks", "count"},
	{"vstore.setcell_us_per_query", "us"},
	{"vstore.setcell_calls_per_query", "count"},
	{"vstore.nodevd_us_per_query", "us"},
	{"vstore.nodevd_calls_per_query", "count"},
	{"storage.light_reads_per_query", "count"},
	{"storage.heavy_reads_per_query", "count"},
	{"storage.pool_hit_frac", "ratio"},
	{"storage.pool_evictions_per_query", "count"},
	{"storage.coalesced_reads_per_query", "count"},
	{"storage.sim_us_per_query", "us"},
	{"backend.read_us_per_query", "us"},
	{"backend.reads_per_query", "count"},
	{"backend.pages_per_read", "count"},
	{"backend.bytes_read_per_query", "B"},
	{"backend.mmap_read_frac", "ratio"},
	{"backend.write_us_per_update", "us"},
	{"backend.syncs_per_update", "count"},
	{"core.applyops_ms_per_update", "ms"},
	{"core.touched_cell_frac", "ratio"},
	{"core.lod_reuse_frac", "ratio"},
	{"core.pages_appended_per_update", "count"},
	{"vstore.relayout_ms_per_update", "ms"},
	{"naive.build_ms_per_update", "ms"},
	{"visibility.engine_ms_per_update", "ms"},
	{"dbfile.commit_ms_per_update", "ms"},
	{"dbfile.reopen_s", "s"},
	{"hdov.newsession_us", "us"},
	{"runtime.gc_cycles_per_kquery", "count"},
	{"runtime.gc_pause_us_per_query", "us"},
	{"runtime.sched_wait_p99_us", "us"},
	{"trace.query_us", "us"},
	{"trace.unattributed_us_per_query", "us"},
	{"trace.overhead_us_per_query", "us"},
}

// unitOf returns the unit of the named metric in defs ("" if absent).
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// checkMetrics reports any difference between the metrics a run
// produced and the table it must report.
func checkMetrics(got map[string]metric, want []metricDef) error {
	var missing, extra []string
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.name] = true
		if _, ok := got[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return fmt.Errorf("metrics missing: %v; unexpected: %v", missing, extra)
}
