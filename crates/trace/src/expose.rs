//! Prometheus-style text exposition builder.
//!
//! Always compiled (it formats counters the serving tier keeps anyway —
//! no ring involvement), so the `Metrics` wire request and the example
//! server's `--metrics-addr` listener work even with tracing compiled
//! out. The output follows the Prometheus text format, version 0.0.4:
//! `# HELP` / `# TYPE` headers, one sample per line, histograms as
//! cumulative `_bucket{le="..."}` series plus `_count`. See
//! `docs/OBSERVABILITY.md` for naming conventions and a transcript.
//!
//! [`stats_group!`](crate::stats_group) declares each statistics group's
//! scalar metrics once and generates, from that one line per metric, the
//! atomic counter, the snapshot field and its loader, the declaration-table
//! row the wire codec walks, and the exposition series.

use std::fmt::Write as _;

#[doc(hidden)]
pub use openapi_sync::atomic::{AtomicU64, Ordering};

/// Prometheus metric type of one declared series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone counter.
    Counter,
    /// A value that can go up or down.
    Gauge,
}

/// One row of a stats group's declaration table (see
/// [`stats_group!`](crate::stats_group)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// The snapshot field holding the value.
    pub field: &'static str,
    /// Prometheus series name.
    pub name: &'static str,
    /// Prometheus metric type.
    pub kind: Kind,
    /// Prometheus `# HELP` text, also the field's doc comment.
    pub help: &'static str,
    /// The field is a `usize` count, which the wire decoder bounds like a
    /// length instead of trusting any `u64`.
    pub len: bool,
}

/// A type a declared snapshot field can have. Every declared value travels
/// and renders as a `u64`.
pub trait MetricValue: Copy {
    /// See [`Metric::len`].
    const LEN: bool;
    /// The value as a `u64`.
    fn to_u64(self) -> u64;
    /// The value back from a `u64` (saturating).
    fn from_u64(value: u64) -> Self;
}

impl MetricValue for u64 {
    const LEN: bool = false;
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(value: u64) -> Self {
        value
    }
}

impl MetricValue for usize {
    const LEN: bool = true;
    fn to_u64(self) -> u64 {
        u64::try_from(self).unwrap_or(u64::MAX)
    }
    fn from_u64(value: u64) -> Self {
        usize::try_from(value).unwrap_or(usize::MAX)
    }
}

/// Declares one statistics group: its scalar metrics once, one line each,
/// in the order they travel on the wire and render in the exposition.
///
/// ```text
/// stats_group! {
///     /// docs                          (atomic struct)
///     #[derive(Debug, Default)]
///     pub struct GroupStats { <extra atomic-side fields> }
///     /// docs                          (snapshot struct)
///     #[derive(Debug, Clone, PartialEq, Default)]
///     pub struct GroupSnapshot(this) { <extra field: Type = init,> }
///     <vis> metrics {
///         /// optional extra field docs
///         <atomic|supplied> <counter|gauge> <u64|usize> field "prometheus_name" "help";
///     }
/// }
/// ```
///
/// `atomic` metrics are `u64` counters the owner bumps with
/// `GroupStats::add`; `supplied` metrics describe state the owner keeps
/// elsewhere and passes to `GroupStats::snapshot` (in declaration order).
/// Extra snapshot fields are initialised from their `init` expressions,
/// where `this` names the atomic struct. Generated:
///
/// * the atomic struct (atomics from the `openapi-sync` facade), with
///   `add` and the `snapshot` loader, both of the metrics' visibility;
/// * the snapshot struct with one `pub` field per metric (the help text is
///   its doc), then the extra fields;
/// * on the snapshot, `METRICS` (the declaration table), `values` /
///   `from_values` (table order; `from_values` needs `Default` for the
///   extra fields) and `expose`.
#[macro_export]
macro_rules! stats_group {
    // Sort each metric line into an atomic field or a supplied parameter,
    // then emit with both lists.
    (@munch [$($fields:tt)*] $params:tt [$vis:vis] $input:tt
        $(#[$doc:meta])* atomic $kind:ident u64 $field:ident $name:literal $help:literal;
        $($rest:tt)*
    ) => {
        $crate::stats_group!(@munch
            [$($fields)* #[doc = $help] $vis $field: $crate::expose::AtomicU64,]
            $params [$vis] $input $($rest)*);
    };
    (@munch $fields:tt [$($params:tt)*] [$vis:vis] $input:tt
        $(#[$doc:meta])* supplied $kind:ident $ty:ident $field:ident $name:literal $help:literal;
        $($rest:tt)*
    ) => {
        $crate::stats_group!(@munch $fields [$($params)* $field: $ty,] [$vis] $input $($rest)*);
    };
    (@munch $fields:tt $params:tt [$vis:vis] { $($input:tt)* }) => {
        $crate::stats_group!(@emit $fields $params $($input)*);
    };
    (@emit [$($fields:tt)*] [$($params:tt)*]
        $(#[$atomic_meta:meta])*
        $atomic_vis:vis struct $Atomic:ident { $($atomic_extra:tt)* }
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident $(($this:ident))? {
            $(
                $(#[$extra_meta:meta])*
                $extra_vis:vis $extra:ident : $extra_ty:ty = $extra_init:expr
            ),* $(,)?
        }
        $vis:vis metrics {
            $(
                $(#[$doc:meta])*
                $store:ident $kind:ident $ty:ident $field:ident $name:literal $help:literal;
            )*
        }
    ) => {
        $(#[$atomic_meta])*
        $atomic_vis struct $Atomic {
            $($fields)*
            $($atomic_extra)*
        }

        impl $Atomic {
            /// Adds `n` to one of this group's counters.
            $vis fn add(counter: &$crate::expose::AtomicU64, n: u64) {
                // ordering: Relaxed — independent monotone counters; no
                // reader infers cross-counter state from one load.
                counter.fetch_add(n, $crate::expose::Ordering::Relaxed);
            }

            /// A point-in-time copy: each counter loaded on its own (exact,
            /// with no cross-counter atomicity), the supplied values as
            /// passed.
            $vis fn snapshot(&self, $($params)*) -> $Snap {
                $(let $this = self;)?
                $Snap {
                    $($field: $crate::stats_group!(@load $store self $field),)*
                    $($extra: $extra_init,)*
                }
            }
        }

        $(#[$snap_meta])*
        $snap_vis struct $Snap {
            $(
                #[doc = $help]
                $(#[$doc])*
                pub $field: $ty,
            )*
            $(
                $(#[$extra_meta])*
                $extra_vis $extra: $extra_ty,
            )*
        }

        impl $Snap {
            /// The declaration table: wire and exposition order.
            pub const METRICS: [$crate::expose::Metric; [$(stringify!($field)),*].len()] = [$(
                $crate::expose::Metric {
                    field: stringify!($field),
                    name: $name,
                    kind: $crate::stats_group!(@kind $kind),
                    help: $help,
                    len: <$ty as $crate::expose::MetricValue>::LEN,
                },
            )*];

            /// The declared values, in [`Self::METRICS`] order.
            pub fn values(&self) -> [u64; [$(stringify!($field)),*].len()] {
                [$($crate::expose::MetricValue::to_u64(self.$field)),*]
            }

            /// Rebuilds a snapshot from [`Self::values`]; the fields outside
            /// the declaration take their defaults.
            // A group without extra fields leaves nothing to default.
            #[allow(clippy::needless_update)]
            pub fn from_values(values: [u64; [$(stringify!($field)),*].len()]) -> Self {
                let [$($field),*] = values;
                Self {
                    $($field: $crate::expose::MetricValue::from_u64($field),)*
                    ..Default::default()
                }
            }

            /// Appends every declared series to an exposition document.
            pub fn expose(&self, m: &mut $crate::expose::MetricsText) {
                for (metric, value) in Self::METRICS.iter().zip(self.values()) {
                    m.metric(metric, value);
                }
            }
        }
    };
    (@load atomic $self:tt $field:ident) => {
        // ordering: Relaxed — per-counter exactness is the whole contract
        // (see the owner's torn-reads note).
        $self.$field.load($crate::expose::Ordering::Relaxed)
    };
    (@load supplied $self:tt $field:ident) => {
        $field
    };
    (@kind counter) => {
        $crate::expose::Kind::Counter
    };
    (@kind gauge) => {
        $crate::expose::Kind::Gauge
    };
    (
        $(#[$atomic_meta:meta])*
        $atomic_vis:vis struct $Atomic:ident { $($atomic_extra:tt)* }
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident $(($this:ident))? { $($snap_extra:tt)* }
        $vis:vis metrics { $($lines:tt)* }
    ) => {
        $crate::stats_group!(@munch [] [] [$vis] {
            $(#[$atomic_meta])*
            $atomic_vis struct $Atomic { $($atomic_extra)* }
            $(#[$snap_meta])*
            $snap_vis struct $Snap $(($this))? { $($snap_extra)* }
            $vis metrics { $($lines)* }
        } $($lines)*);
    };
}

/// Incremental builder for one exposition document. Metric families are
/// appended in call order; [`MetricsText::finish`] yields the document.
#[derive(Debug, Default)]
pub struct MetricsText {
    out: String,
}

impl MetricsText {
    /// Starts an empty document.
    pub fn new() -> MetricsText {
        MetricsText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, help: &str, kind: &str, value: u64) {
        self.header(name, help, kind);
        let _ = writeln!(self.out, "{name} {value}");
    }

    /// Appends a monotone counter family with one unlabelled sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.sample(name, help, "counter", value);
    }

    /// Appends a declared metric's family with one unlabelled sample.
    pub fn metric(&mut self, metric: &Metric, value: u64) {
        let kind = match metric.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        self.sample(metric.name, metric.help, kind, value);
    }

    /// Appends a histogram family in seconds from log₂-nanosecond bucket
    /// counts (`counts[i]` = observations in `[2^i, 2^{i+1})` ns — the
    /// `LatencyHistogram` layout). `series` pairs an optional
    /// `label="value"` selector (empty for none) with its counts; each
    /// series renders cumulative `_bucket` samples (zero-run tails
    /// collapse into the final `+Inf`) plus `_count`. `_sum` is omitted:
    /// the log₂ buckets do not preserve it and an estimate would lie.
    pub fn histogram_log2ns(&mut self, name: &str, help: &str, series: &[(&str, &[u64])]) {
        self.header(name, help, "histogram");
        for (label, counts) in series {
            let sel = |le: &str| -> String {
                if label.is_empty() {
                    format!("{{le=\"{le}\"}}")
                } else {
                    format!("{{{label},le=\"{le}\"}}")
                }
            };
            let total: u64 = counts.iter().sum();
            let last_used = counts.iter().rposition(|&c| c != 0);
            let mut cum = 0u64;
            if let Some(last) = last_used {
                for (i, &c) in counts.iter().enumerate().take(last + 1) {
                    cum += c;
                    let le = upper_bound_secs(i);
                    let _ = writeln!(self.out, "{name}_bucket{} {cum}", sel(&le));
                }
            }
            let _ = writeln!(self.out, "{name}_bucket{} {total}", sel("+Inf"));
            let suffix = if label.is_empty() {
                String::new()
            } else {
                format!("{{{label}}}")
            };
            let _ = writeln!(self.out, "{name}_count{suffix} {total}");
        }
    }

    /// The finished exposition document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Bucket `i`'s exclusive upper bound, `2^{i+1}` ns, rendered in seconds
/// (Prometheus `le` values are seconds by convention).
fn upper_bound_secs(i: usize) -> String {
    let ns = 2f64.powi(i as i32 + 1);
    format!("{:e}", ns / 1e9)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    crate::stats_group! {
        /// A group exercising every kind of line.
        #[derive(Debug, Default)]
        pub struct DemoStats {
            /// Rides along on the atomic side; not a metric.
            pub marker: u32,
        }
        /// Its snapshot.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct DemoSnapshot(demo) {
            /// Initialised from the atomic side.
            pub marker: u32 = demo.marker,
        }
        pub metrics {
            atomic counter u64 requests "demo_requests_total" "Requests admitted.";
            supplied gauge usize regions "demo_regions" "Regions cached.";
            atomic gauge u64 peers "demo_peers" "Peers configured.";
            supplied counter u64 evictions "demo_evictions_total" "Regions evicted.";
        }
    }

    #[test]
    fn a_declared_group_snapshots_round_trips_and_exposes() {
        let stats = DemoStats {
            marker: 9,
            ..DemoStats::default()
        };
        DemoStats::add(&stats.requests, 40);
        DemoStats::add(&stats.requests, 2);
        DemoStats::add(&stats.peers, 3);
        let snap = stats.snapshot(7, 5);
        let expected = DemoSnapshot {
            requests: 42,
            regions: 7,
            peers: 3,
            evictions: 5,
            marker: 9,
        };
        assert_eq!(snap, expected);

        let table: Vec<_> = DemoSnapshot::METRICS
            .iter()
            .map(|m| (m.field, m.kind, m.len))
            .collect();
        assert_eq!(
            table,
            [
                ("requests", Kind::Counter, false),
                ("regions", Kind::Gauge, true),
                ("peers", Kind::Gauge, false),
                ("evictions", Kind::Counter, false),
            ]
        );
        assert_eq!(snap.values(), [42, 7, 3, 5]);
        assert_eq!(
            DemoSnapshot::from_values(snap.values()),
            DemoSnapshot {
                marker: 0,
                ..expected
            }
        );

        let mut m = MetricsText::new();
        snap.expose(&mut m);
        m.counter("demo_trace_total", "Explicit counter.", 1);
        assert_eq!(
            m.finish(),
            "# HELP demo_requests_total Requests admitted.\n\
             # TYPE demo_requests_total counter\n\
             demo_requests_total 42\n\
             # HELP demo_regions Regions cached.\n\
             # TYPE demo_regions gauge\n\
             demo_regions 7\n\
             # HELP demo_peers Peers configured.\n\
             # TYPE demo_peers gauge\n\
             demo_peers 3\n\
             # HELP demo_evictions_total Regions evicted.\n\
             # TYPE demo_evictions_total counter\n\
             demo_evictions_total 5\n\
             # HELP demo_trace_total Explicit counter.\n\
             # TYPE demo_trace_total counter\n\
             demo_trace_total 1\n"
        );
    }

    #[test]
    fn histograms_render_cumulative_buckets_per_series() {
        let mut counts = [0u64; 48];
        counts[10] = 3; // [1024, 2048) ns
        counts[12] = 1; // [4096, 8192) ns
        let mut m = MetricsText::new();
        m.histogram_log2ns(
            "openapi_stage_latency_seconds",
            "Per-stage latency.",
            &[
                ("stage=\"queue\"", &counts),
                ("stage=\"solve\"", &[0u64; 48]),
            ],
        );
        let doc = m.finish();
        // Cumulative counts: 3 at the 2^11 ns bound, still 3 at 2^13 ns... 4 after.
        assert!(doc.contains("stage=\"queue\",le=\"2.048e-6\"} 3\n"));
        assert!(doc.contains("stage=\"queue\",le=\"8.192e-6\"} 4\n"));
        assert!(doc.contains("stage=\"queue\",le=\"+Inf\"} 4\n"));
        assert!(doc.contains("openapi_stage_latency_seconds_count{stage=\"queue\"} 4\n"));
        // An empty series still exposes +Inf and _count.
        assert!(doc.contains("stage=\"solve\",le=\"+Inf\"} 0\n"));
        assert!(doc.contains("openapi_stage_latency_seconds_count{stage=\"solve\"} 0\n"));
        // The zero tail collapsed: no bucket lines above the last used one.
        assert!(!doc.contains("le=\"1.6384e-5\""));
    }
}
