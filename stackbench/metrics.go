package main

// metricDef is one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct{ name, unit string }

// endToEnd are reported by every workload with tracing off. They are
// the metrics that hold still from run to run on a shared 2-vCPU VM;
// the latency and roll figures, whose run-to-run spread there reaches
// the largest bound a gate may use, are reported per layer and printed
// as info lines by every run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_ops_s", "1/s"},
	{"bytes_per_op", "B"},
	{"heap_mb", "MB"},
}

// perLayer are reported by the traced run. A metric whose layer does no
// work on a workload reads 0 and the report says why.
var perLayer = []metricDef{
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"roll_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"crawl_day_s", "s"},
	{"error_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},

	{"edgecache.self_us_p50", "us"},
	{"edgecache.self_us_p99", "us"},
	{"edgecache.hit_frac", "frac"},
	{"edgecache.miss_frac", "frac"},
	{"edgecache.revalidate_frac", "frac"},
	{"edgecache.coalesced", "count"},
	{"edgecache.evictions", "count"},
	{"edgecache.origin_bytes_per_req", "B"},

	{"fleet.proxy_self_us_p50", "us"},
	{"fleet.merge_self_ms_p50", "ms"},
	{"fleet.merge_self_ms_p99", "ms"},
	{"fleet.scatter_spread_ms", "ms"},
	{"fleet.merged_pages", "count"},
	{"fleet.epoch_retries", "count"},
	{"fleet.epoch_skews", "count"},
	{"fleet.shard_errors", "count"},

	{"storeserver.detail_us_p50", "us"},
	{"storeserver.comments_us_p50", "us"},
	{"storeserver.page_us_p50", "us"},
	{"storeserver.not_modified_frac", "frac"},
	{"storeserver.prepare_ms", "ms"},
	{"storeserver.commit_ms", "ms"},
	{"storeserver.reencoded", "count"},
	{"storeserver.carried", "count"},
	{"storeserver.rate_limited", "count"},

	{"wal.post_us_p50", "us"},
	{"wal.post_us_p99", "us"},
	{"wal.batch_records_mean", "count"},
	{"wal.accepted", "count"},
	{"wal.deduped", "count"},
	{"wal.duplicates", "count"},
	{"wal.backpressure", "count"},
	{"wal.pending_end", "count"},

	{"arena.slabs_live", "count"},
	{"arena.slabs_reused", "count"},
	{"arena.compactions", "count"},

	{"crawler.requests_per_day", "count"},
	{"crawler.not_modified_frac", "frac"},
	{"crawler.walk_share", "frac"},
	{"resilient.retries", "count"},
	{"resilient.attempt_p50_ms", "ms"},

	{"gc.cpu_frac", "frac"},
	{"gc.cycles", "count"},
	{"gc.heap_objects", "count"},

	{"setup.market_s", "s"},
	{"setup.snapshot_s", "s"},
	{"setup.warm_s", "s"},

	{"gen.late_p99_ms", "ms"},
	{"gen.inputs_s", "s"},
	{"gen.conns", "count"},
}
