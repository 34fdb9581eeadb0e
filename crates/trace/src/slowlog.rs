//! The sampling slow-request log.
//!
//! The serving tier calls [`observe`] once per settled request with the
//! request's total latency and its per-stage nanosecond breakdown. When a
//! threshold is configured and the total crosses it, every `sample`-th
//! such request renders to stderr — as an indented stage timeline
//! ([`Format::Text`]) or as one JSON object per line ([`Format::Jsonl`]).
//!
//! With the runtime switch off ([`crate::set_runtime_enabled`]),
//! [`observe`] returns at once.

use std::time::Duration;

use openapi_sync::atomic::{AtomicU64, Ordering};

/// The names of the per-stage slots in an [`observe`] breakdown, in
/// order: queue wait, probe, store lookup, solve, reply write. This is
/// the same taxonomy `StatsSnapshot`'s stage histograms use.
pub const STAGE_NAMES: [&str; 5] = ["queue", "probe", "store", "solve", "reply"];

/// Number of per-stage slots in a breakdown.
pub const STAGES: usize = STAGE_NAMES.len();

/// Slow-log output format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// A human-readable indented stage timeline.
    Text,
    /// One compact JSON object per logged request.
    Jsonl,
}

/// Threshold in nanos; 0 = disabled (the default).
static SLOW_NS: AtomicU64 = AtomicU64::new(0);
/// Log every `n`-th over-threshold request; minimum 1.
static SAMPLE: AtomicU64 = AtomicU64::new(1);
/// 0 = text, 1 = jsonl.
static FORMAT: AtomicU64 = AtomicU64::new(0);
/// Over-threshold requests seen (drives sampling).
static SEEN: AtomicU64 = AtomicU64::new(0);

/// Sets the slow-request threshold; `None` disables the log (default).
pub fn set_threshold(threshold: Option<Duration>) {
    let ns = threshold.map_or(0, |d| {
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1)
    });
    // ordering: Relaxed — a configuration cell read by monitoring code.
    SLOW_NS.store(ns, Ordering::Relaxed);
}

/// Sets the sampling stride: log every `n`-th over-threshold request
/// (0 is treated as 1).
pub fn set_sample(n: u64) {
    // ordering: Relaxed — a configuration cell read by monitoring code.
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// Sets the output format (default [`Format::Text`]).
pub fn set_format(format: Format) {
    let v = match format {
        Format::Text => 0,
        Format::Jsonl => 1,
    };
    // ordering: Relaxed — a configuration cell read by monitoring code.
    FORMAT.store(v, Ordering::Relaxed);
}

/// Reports one settled request. Logs it to stderr when the slow log is
/// enabled, `total` crosses the threshold, and sampling selects it.
pub fn observe(span: u64, total: Duration, stage_ns: &[u64; STAGES]) {
    if !crate::enabled() {
        return;
    }
    // ordering: Relaxed — configuration cells; see the setters.
    let threshold = SLOW_NS.load(Ordering::Relaxed);
    let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
    if threshold == 0 || total_ns < threshold {
        return;
    }
    // ordering: Relaxed — the sampling counter tolerates races; at worst
    // two concurrent slow requests both log.
    let seen = SEEN.fetch_add(1, Ordering::Relaxed);
    // ordering: Relaxed — configuration cell.
    if !seen.is_multiple_of(SAMPLE.load(Ordering::Relaxed).max(1)) {
        return;
    }
    // ordering: Relaxed — configuration cell.
    let format = if FORMAT.load(Ordering::Relaxed) == 0 {
        Format::Text
    } else {
        Format::Jsonl
    };
    eprint!("{}", render(span, total_ns, stage_ns, format));
}

/// Renders one slow-request record (pure; unit-tested directly).
pub fn render(span: u64, total_ns: u64, stage_ns: &[u64; STAGES], format: Format) -> String {
    match format {
        Format::Text => {
            let mut out = format!(
                "[openapi-trace] slow request span={} total={}\n",
                span,
                fmt_ns(total_ns)
            );
            let accounted: u64 = stage_ns.iter().sum();
            for (name, &ns) in STAGE_NAMES.iter().zip(stage_ns) {
                out.push_str(&format!("  {:<6} {}\n", name, fmt_ns(ns)));
            }
            out.push_str(&format!(
                "  {:<6} {}\n",
                "other",
                fmt_ns(total_ns.saturating_sub(accounted))
            ));
            out
        }
        Format::Jsonl => {
            let mut out = format!("{{\"span\":{},\"total_ns\":{}", span, total_ns);
            for (name, &ns) in STAGE_NAMES.iter().zip(stage_ns) {
                out.push_str(&format!(",\"{}_ns\":{}", name, ns));
            }
            out.push_str("}\n");
            out
        }
    }
}

/// Formats nanoseconds with a human-scale unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{}ns", ns)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn text_timeline_is_indented_and_accounts_the_remainder() {
        let s = render(
            7,
            2_500_000,
            &[1_000_000, 200_000, 0, 1_000_000, 100_000],
            Format::Text,
        );
        assert!(s.starts_with("[openapi-trace] slow request span=7 total=2.500ms\n"));
        assert!(s.contains("\n  queue  1.000ms\n"));
        assert!(s.contains("\n  other  200.000us\n"));
    }

    #[test]
    fn jsonl_record_is_one_line_of_json() {
        let s = render(7, 1500, &[100, 200, 300, 400, 500], Format::Jsonl);
        assert_eq!(
            s,
            "{\"span\":7,\"total_ns\":1500,\"queue_ns\":100,\"probe_ns\":200,\
             \"store_ns\":300,\"solve_ns\":400,\"reply_ns\":500}\n"
        );
        assert_eq!(s.matches('\n').count(), 1);
    }
}
