//! Metric declarations and the result line.
//!
//! Every metric the command can print is declared here once, with its
//! unit; `BENCHMARK.json` declares the same set (a test keeps the two in
//! step). An untraced run prints exactly [`END_TO_END`], a traced run
//! exactly [`PER_LAYER`]. A per-layer figure of 0 means the layer is not
//! on this workload's path (or, for a p99, the run had too few samples).

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("queries_per_request", "queries"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("api.predict_p50_us", "us"),
    ("api.busy_share", "ratio"),
    ("api.share", "ratio"),
    ("net.ping_p50_ms", "ms"),
    ("net.overhead_p50_ms", "ms"),
    ("net.reply_bytes", "bytes"),
    ("net.busy_rejects", "count"),
    ("net.share", "ratio"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.probe_p50_ms", "ms"),
    ("serve.store_p50_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.reply_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.store_hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced_served", "count"),
    ("serve.solve_yield", "ratio"),
    ("core.solve_p50_ms", "ms"),
    ("core.solve_p99_ms", "ms"),
    ("core.iterations_mean", "count"),
    ("core.useful_query_share", "ratio"),
    ("core.assemble_p50_us", "us"),
    ("core.cache_lookup_p50_us", "us"),
    ("core.cached_regions", "count"),
    ("core.scan_share", "ratio"),
    ("core.solve_share", "ratio"),
    ("linalg.factor_p50_us", "us"),
    ("linalg.check_p50_us", "us"),
    ("store.open_ms", "ms"),
    ("store.append_p50_us", "us"),
    ("store.flush_p50_ms", "ms"),
    ("store.appends", "count"),
    ("store.fsyncs", "count"),
    ("store.wal_bytes", "bytes"),
    ("fabric.sync_ms", "ms"),
    ("fabric.pulled_records", "count"),
    ("fabric.pulled_bytes", "bytes"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// The unit declared for `name`, in either set.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Metric values of one run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Empty.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// When `name` is not declared: an undeclared metric is a bench bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Keeps exactly `declared`, setting any that were never set to 0.
    pub fn restricted_to(&self, declared: &[(&'static str, &'static str)]) -> Metrics {
        Metrics(
            declared
                .iter()
                .map(|(n, _)| (*n, self.get(n).unwrap_or(0.0)))
                .collect(),
        )
    }
}

/// A JSON number with every digit `f64` carries (non-finite values, which
/// only a failed run produces, become the largest finite `f64`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name).expect("set() admits declared metrics only")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
