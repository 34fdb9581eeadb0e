//! Atomic service statistics: the numbers a capacity planner needs.

use openapi_metrics::{quantile_from_buckets, LatencyHistogram, LATENCY_BUCKETS};
use openapi_store::StoreStatsSnapshot;
use std::fmt;
use std::time::Duration;

pub use openapi_trace::slowlog::{STAGES, STAGE_NAMES};

/// Index of a per-stage latency slot (the [`STAGE_NAMES`] order): where a
/// request's wall time went, one histogram per stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StageSlot {
    /// Queue wait: `submit` to a worker picking the job up.
    Queue = 0,
    /// Black-box membership probe (cache scan + model queries).
    Probe = 1,
    /// Durable store lookup after a cache miss.
    Store = 2,
    /// A led Algorithm-1 solve.
    Solve = 3,
    /// Reply frame write on the wire (recorded by `openapi-net`).
    Reply = 4,
}

openapi_trace::stats_group! {
    /// Lock-free counters every worker thread records into, plus the request
    /// latency histograms. All counters are monotone over the service
    /// lifetime.
    ///
    /// # Torn reads
    /// `snapshot` loads the counters one by one with no cross-counter
    /// atomicity: a snapshot taken while requests are in flight may observe,
    /// say, a request's `requests` increment but not yet its outcome bucket.
    /// Each individual counter is still exact, and once every submitted
    /// ticket has resolved the snapshot is exact as a whole (the ledger
    /// identity on [`StatsSnapshot`] holds) — the reply-channel `recv` the
    /// caller blocked on happens-after the worker's final `add`.
    /// `evictions` and `cached_regions` describe the cache, which the service
    /// owns — it supplies them (see `InterpretationService::stats`).
    #[derive(Debug, Default)]
    pub struct ServiceStats {
        /// End-to-end request latency (submit → reply).
        pub(crate) latency: LatencyHistogram,
        /// Per-stage latency, one histogram per [`StageSlot`].
        pub(crate) stage: [LatencyHistogram; STAGES],
    }
    /// A point-in-time view of [`ServiceStats`] plus the cache gauges (and
    /// the durable store's counters, when the service has one).
    ///
    /// Once every submitted ticket has resolved and the service is still
    /// running, `requests = hits + store_hits + misses + coalesced_served +
    /// failures` — each request the service completed ends in exactly one of
    /// those outcomes. The exception is shutdown: requests still queued when
    /// the workers exit resolve as `ServeError::ServiceStopped` through their
    /// dropped reply channels, outside any worker's accounting, so after a
    /// shutdown race `requests` can exceed the outcome buckets' sum.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StatsSnapshot(stats) {
        /// Median request latency (`None` before any request completed).
        pub p50_latency: Option<Duration> = stats.latency.p50(),
        /// 99th-percentile request latency.
        pub p99_latency: Option<Duration> = stats.latency.p99(),
        /// Raw end-to-end latency bucket counts (the `LatencyHistogram` log₂
        /// layout), so remote consumers can reconstruct any quantile.
        pub latency_buckets: [u64; LATENCY_BUCKETS] = stats.latency.snapshot(),
        /// Raw per-stage latency bucket counts, one array per [`StageSlot`]
        /// in [`STAGE_NAMES`] order.
        pub stage_buckets: [[u64; LATENCY_BUCKETS]; STAGES] =
            std::array::from_fn(|i| stats.stage[i].snapshot()),
        /// The durable store's own counters (`None` when the service runs
        /// without a store).
        pub store: Option<StoreStatsSnapshot> = None,
        /// The anti-entropy fabric's counters (`None` when no fabric node is
        /// attached to the service).
        pub fabric: Option<FabricStatsSnapshot> = None,
        /// The drift detector's counters (`None` only on snapshots not taken
        /// through a service — the detector itself is always on).
        pub drift: Option<DriftStatsSnapshot> = None,
    }
    pub(crate) metrics {
        atomic counter u64 requests "openapi_requests_total" "Requests submitted to the interpretation service.";
        atomic counter u64 hits "openapi_cache_hits_total" "Requests served from the shared region cache.";
        /// An outcome bucket: the region is promoted back into the cache.
        atomic counter u64 store_hits "openapi_store_hits_total" "Requests served from the durable region store.";
        atomic counter u64 misses "openapi_misses_total" "Requests that led an Algorithm-1 solve.";
        /// Events, not outcomes: one request can wait more than once.
        atomic counter u64 coalesced_waits "openapi_coalesced_waits_total" "Times a request parked behind an in-flight solve.";
        /// An outcome bucket.
        atomic counter u64 coalesced_served "openapi_coalesced_served_total" "Requests served from a leader's solve.";
        atomic counter u64 failures "openapi_failures_total" "Requests that completed with an error.";
        atomic counter u64 deadline_expired "openapi_deadline_expired_total" "Failures caused by an expired deadline.";
        atomic counter u64 queries "openapi_queries_total" "Prediction queries issued to the model API.";
        supplied counter u64 evictions "openapi_cache_evictions_total" "Regions evicted from the bounded cache.";
        supplied gauge usize cached_regions "openapi_cache_regions" "Regions currently cached.";
    }
}

impl ServiceStats {
    pub(crate) fn record_latency(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// Records one observation into a stage's latency histogram.
    pub(crate) fn record_stage(&self, slot: StageSlot, latency: Duration) {
        self.stage[slot as usize].record(latency);
    }
}

/// The snapshot of a service that has recorded nothing: the base the wire
/// decoder fills in.
impl Default for StatsSnapshot {
    fn default() -> Self {
        ServiceStats::default().snapshot(0, 0)
    }
}

openapi_trace::stats_group! {
    /// Lock-free counters for the drift detector: what the service did when
    /// the hidden model stopped explaining a region it had already solved
    /// (a silent model swap behind the API). The serving path records
    /// detections inline; [`crate::ServiceCore::apply_tombstone`] records
    /// replicated invalidations from the fabric. Snapshots are per-counter
    /// exact, same contract as [`ServiceStats`]; the witness-book size is a
    /// gauge the service owns and supplies.
    #[derive(Debug, Default)]
    pub struct DriftStats {}
    /// A point-in-time view of [`DriftStats`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct DriftStatsSnapshot {}
    pub metrics {
        /// A previously witnessed instance whose probe no cached or stored
        /// region explains any more, while its old region was still offered.
        atomic counter u64 detected "openapi_drift_detected_total" "Confirmed drift detections (stale regions caught).";
        /// Local or replicated invalidations.
        atomic counter u64 invalidated "openapi_drift_invalidated_total" "Cache entries evicted by drift invalidations.";
        atomic counter u64 tombstones "openapi_drift_tombstones_total" "Fresh tombstones written to the durable store.";
        atomic counter u64 resolves "openapi_drift_resolves_total" "Drifted requests re-solved against the live API.";
        supplied gauge u64 witnesses "openapi_drift_witnesses" "Served instances remembered as drift witnesses.";
    }
}

openapi_trace::stats_group! {
    /// Lock-free counters for the anti-entropy replication fabric. The service
    /// owns one (`Arc`-shared with the `openapi-fabric` gossip loop, which
    /// lives *above* this crate in the dependency graph) so a stats snapshot
    /// can carry the fabric's view without a dependency cycle. Snapshots are
    /// per-counter exact, same contract as [`ServiceStats`].
    #[derive(Debug, Default)]
    pub struct FabricStats {}
    /// A point-in-time view of [`FabricStats`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct FabricStatsSnapshot {}
    pub metrics {
        /// Set once by the fabric node at spawn.
        atomic gauge u64 peers "openapi_fabric_peers" "Anti-entropy peers configured.";
        /// One round is one peer exchange.
        atomic counter u64 rounds "openapi_fabric_rounds_total" "Completed anti-entropy rounds.";
        atomic counter u64 digests "openapi_fabric_digests_total" "Digest exchanges performed against peers.";
        atomic counter u64 pulled_records "openapi_fabric_pulled_records_total" "Record frames pulled from peers.";
        atomic counter u64 pulled_bytes "openapi_fabric_pulled_bytes_total" "Bytes of record frames pulled from peers.";
        atomic counter u64 ingested "openapi_fabric_ingested_total" "Pulled records validated and ingested into the store.";
        /// Benign gossip overlap.
        atomic counter u64 duplicates "openapi_fabric_duplicates_total" "Pulled records the local store already held.";
        /// Frame CRC, model shape, or the self-consistency spot-check.
        atomic counter u64 rejected "openapi_fabric_rejected_total" "Pulled records rejected by validation.";
        /// The loop retries later.
        atomic counter u64 peer_failures "openapi_fabric_peer_failures_total" "Anti-entropy rounds lost to transport or peer errors.";
        atomic counter u64 spot_checks "openapi_fabric_spot_checks_total" "Self-consistency spot-checks run on pulled records.";
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests {:>8}   hits {:>8} (+{} store)   misses {:>6}   coalesced {:>6} (waits {})",
            self.requests,
            self.hits,
            self.store_hits,
            self.misses,
            self.coalesced_served,
            self.coalesced_waits
        )?;
        writeln!(
            f,
            "queries  {:>8}   failures {:>4} (deadline {})   regions {:>5} (evicted {})",
            self.queries, self.failures, self.deadline_expired, self.cached_regions, self.evictions
        )?;
        let show = |d: Option<Duration>| match d {
            Some(d) => format!("{:.3} ms", d.as_secs_f64() * 1e3),
            None => "n/a".to_string(),
        };
        let q = |buckets: &[u64; LATENCY_BUCKETS], q: f64| quantile_from_buckets(buckets, q);
        writeln!(
            f,
            "latency  p50 {}   p90 {}   p99 {}",
            show(q(&self.latency_buckets, 0.5)),
            show(q(&self.latency_buckets, 0.9)),
            show(q(&self.latency_buckets, 0.99)),
        )?;
        write!(f, "stages   ")?;
        for (i, name) in STAGE_NAMES.iter().enumerate() {
            if i > 0 {
                write!(f, "   ")?;
            }
            write!(
                f,
                "{} p50/p99 {}/{}",
                name,
                show(q(&self.stage_buckets[i], 0.5)),
                show(q(&self.stage_buckets[i], 0.99)),
            )?;
        }
        if let Some(store) = &self.store {
            write!(f, "\n{store}")?;
        }
        if let Some(fabric) = &self.fabric {
            write!(
                f,
                "\nfabric   peers {:>3}   rounds {:>6}   pulled {:>6} ({} B)   ingested {:>6} (dup {}, rejected {})",
                fabric.peers,
                fabric.rounds,
                fabric.pulled_records,
                fabric.pulled_bytes,
                fabric.ingested,
                fabric.duplicates,
                fabric.rejected
            )?;
        }
        if let Some(drift) = &self.drift {
            write!(
                f,
                "\ndrift    detected {:>4}   invalidated {:>4}   tombstones {:>4}   resolves {:>4}   witnesses {:>6}",
                drift.detected,
                drift.invalidated,
                drift.tombstones,
                drift.resolves,
                drift.witnesses
            )?;
        }
        Ok(())
    }
}

impl StatsSnapshot {
    /// Renders this snapshot as a Prometheus text-format exposition:
    /// counters, cache gauges, the end-to-end latency histogram, the
    /// per-stage histograms (labelled `stage="queue"` … `stage="reply"`),
    /// the store's counters when present, and the trace ring's own
    /// emit/drop counters. Served by the `Metrics` wire request and the
    /// example server's `--metrics-addr` listener; conventions are
    /// documented in `docs/OBSERVABILITY.md`.
    ///
    /// The ring counters come from this process's global ring, so call it
    /// where the snapshot was taken (the server side), not on a
    /// wire-copied snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut m = openapi_trace::expose::MetricsText::new();
        self.expose(&mut m);
        m.histogram_log2ns(
            "openapi_request_latency_seconds",
            "End-to-end request latency (submit to reply).",
            &[("", &self.latency_buckets)],
        );
        let labels: Vec<String> = STAGE_NAMES
            .iter()
            .map(|n| format!("stage=\"{n}\""))
            .collect();
        let series: Vec<(&str, &[u64])> = labels
            .iter()
            .zip(&self.stage_buckets)
            .map(|(l, b)| (l.as_str(), b.as_slice()))
            .collect();
        m.histogram_log2ns(
            "openapi_stage_latency_seconds",
            "Per-stage request latency by serving stage.",
            &series,
        );
        if let Some(store) = &self.store {
            store.expose(&mut m);
        }
        if let Some(fabric) = &self.fabric {
            fabric.expose(&mut m);
        }
        if let Some(drift) = &self.drift {
            drift.expose(&mut m);
        }
        let ring = openapi_trace::ring_stats();
        m.counter(
            "openapi_trace_events_total",
            "Trace events committed into the ring.",
            ring.emitted,
        );
        m.counter(
            "openapi_trace_dropped_total",
            "Trace events dropped by lap contention.",
            ring.dropped,
        );
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_histograms_flow_into_the_snapshot_and_report() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.requests, 1);
        stats.record_stage(StageSlot::Queue, Duration::from_micros(3));
        stats.record_stage(StageSlot::Probe, Duration::from_micros(20));
        stats.record_stage(StageSlot::Reply, Duration::from_micros(5));
        stats.record_latency(Duration::from_micros(30));
        let mut snap = stats.snapshot(0, 0);
        assert!(snap.p50_latency.is_some());
        assert!(snap.store.is_none(), "the service fills the store view in");
        assert_eq!(
            snap.stage_buckets[StageSlot::Queue as usize]
                .iter()
                .sum::<u64>(),
            1
        );
        assert_eq!(
            snap.stage_buckets[StageSlot::Solve as usize]
                .iter()
                .sum::<u64>(),
            0
        );
        // The Display breakdown names every stage, and the store's lines
        // once a store view is attached.
        snap.store = Some(StoreStatsSnapshot::default());
        let text = snap.to_string();
        for name in STAGE_NAMES {
            assert!(text.contains(name), "stage {name} missing from report");
        }
        assert!(text.contains("requests") && text.contains("p90"));
        assert!(text.contains("segments") && text.contains("fsyncs"));
    }

    #[test]
    fn fabric_counters_flow_into_display_and_prometheus() {
        let fabric = FabricStats::default();
        FabricStats::add(&fabric.rounds, 3);
        FabricStats::add(&fabric.pulled_records, 5);
        FabricStats::add(&fabric.ingested, 5);
        FabricStats::add(&fabric.peers, 2);
        let stats = ServiceStats::default();
        let mut snap = stats.snapshot(0, 0);
        assert!(
            snap.fabric.is_none(),
            "the service fills the fabric view in"
        );
        snap.fabric = Some(fabric.snapshot());
        let text = snap.to_string();
        assert!(text.contains("fabric") && text.contains("rounds"));
        let doc = snap.to_prometheus();
        assert!(doc.contains("openapi_fabric_rounds_total 3\n"));
        assert!(doc.contains("openapi_fabric_ingested_total 5\n"));
        assert!(doc.contains("openapi_fabric_peers 2\n"));
        // Without a fabric the series are absent entirely.
        let bare = stats.snapshot(0, 0).to_prometheus();
        assert!(!bare.contains("openapi_fabric_"));
    }

    #[test]
    fn drift_counters_flow_into_display_and_prometheus() {
        let drift = DriftStats::default();
        DriftStats::add(&drift.detected, 2);
        DriftStats::add(&drift.invalidated, 3);
        DriftStats::add(&drift.tombstones, 2);
        DriftStats::add(&drift.resolves, 2);
        let stats = ServiceStats::default();
        let mut snap = stats.snapshot(0, 0);
        assert!(snap.drift.is_none(), "the service fills the drift view in");
        snap.drift = Some(drift.snapshot(11));
        let text = snap.to_string();
        assert!(text.contains("drift") && text.contains("tombstones"));
        let doc = snap.to_prometheus();
        assert!(doc.contains("openapi_drift_detected_total 2\n"));
        assert!(doc.contains("openapi_drift_tombstones_total 2\n"));
        assert!(doc.contains("openapi_drift_witnesses 11\n"));
        // Without the drift view the series are absent entirely.
        let bare = stats.snapshot(0, 0).to_prometheus();
        assert!(!bare.contains("openapi_drift_"));
    }

    #[test]
    fn the_prometheus_exposition_exposes_counters_and_stage_histograms() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.requests, 4);
        ServiceStats::add(&stats.queries, 9);
        stats.record_stage(StageSlot::Probe, Duration::from_micros(20));
        stats.record_latency(Duration::from_micros(25));
        let doc = stats.snapshot(0, 2).to_prometheus();
        assert!(doc.contains("# TYPE openapi_requests_total counter\n"));
        assert!(doc.contains("openapi_requests_total 4\n"));
        assert!(doc.contains("openapi_queries_total 9\n"));
        assert!(doc.contains("openapi_cache_regions 2\n"));
        assert!(doc.contains("# TYPE openapi_stage_latency_seconds histogram\n"));
        for name in STAGE_NAMES {
            assert!(doc.contains(&format!("stage=\"{name}\"")));
        }
        assert!(doc.contains("openapi_request_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        // Every non-comment line is `name{labels} value` — parseable.
        for line in doc.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        }
    }
}
