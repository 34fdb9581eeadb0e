//! Atomic store statistics: recovery, append, flush, and lookup counters.

use std::fmt;

openapi_trace::stats_group! {
    /// Lock-free counters the store's callers and its flusher thread record
    /// into. Recovery counters are written once at open; the rest are
    /// monotone over the store's lifetime. The gauges (`regions`,
    /// `wal_bytes`, `segments`) describe state the store owns and are
    /// supplied by [`crate::RegionStore::stats`].
    ///
    /// # Torn reads
    /// `snapshot` loads the counters one by one with no cross-counter
    /// atomicity: a snapshot racing the flusher may see an append without its
    /// flush. Each counter is individually exact; after `flush`/`close`
    /// returns, the barrier ack's channel edge makes the whole snapshot exact.
    #[derive(Debug, Default)]
    pub struct StoreStats {}
    /// A point-in-time view of [`StoreStats`] plus the store gauges.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StoreStatsSnapshot {}
    pub(crate) metrics {
        /// Includes regions still queued for the WAL.
        supplied gauge usize regions "openapi_store_regions" "Distinct regions durable (or queued durable).";
        /// Header included.
        supplied gauge u64 wal_bytes "openapi_store_wal_bytes" "Current WAL length in bytes.";
        supplied gauge usize segments "openapi_store_segments" "Sealed segment files on disk.";
        /// Queued for the WAL.
        atomic counter u64 appends "openapi_store_appends_total" "New regions accepted by the store.";
        atomic counter u64 duplicate_appends "openapi_store_duplicate_appends_total" "Appends skipped because the region was already durable.";
        atomic counter u64 flushed_records "openapi_store_flushed_records_total" "Records written to the WAL by the flusher.";
        /// At most `flushed_records`: the flusher batches.
        atomic counter u64 fsyncs "openapi_store_fsyncs_total" "Batched fsync calls issued by the flusher.";
        atomic counter u64 lookups "openapi_store_lookups_total" "Membership lookups served by the store.";
        atomic counter u64 hits "openapi_store_lookup_hits_total" "Store lookups that found their region.";
        atomic counter u64 compactions "openapi_store_compactions_total" "Compaction passes completed.";
        atomic counter u64 recovered_wal_records "openapi_store_recovered_wal_records_total" "Records replayed from the WAL at open.";
        atomic counter u64 recovered_segment_records "openapi_store_recovered_segment_records_total" "Records replayed from sealed segments at open.";
        atomic counter u64 recovered_discarded_bytes "openapi_store_recovered_discarded_bytes_total" "Torn or corrupt tail bytes clipped during recovery.";
    }
}

impl fmt::Display for StoreStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "store    regions {:>6}   hits {:>8}/{:<8}   appends {:>6} (+{} dup)",
            self.regions, self.hits, self.lookups, self.appends, self.duplicate_appends
        )?;
        write!(
            f,
            "durable  wal {:>8} B   segments {:>3}   fsyncs {:>5}   recovered {}+{} (clipped {} B)",
            self.wal_bytes,
            self.segments,
            self.fsyncs,
            self.recovered_segment_records,
            self.recovered_wal_records,
            self.recovered_discarded_bytes
        )
    }
}
