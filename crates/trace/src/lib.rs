#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! Structured request tracing and metrics exposition for the serving path.
//!
//! The paper's evaluation axes — query count, interpretation latency,
//! consistency (Cong et al., ICDE 2020) — are per-request quantities, but
//! until this crate the stack only kept aggregates. `openapi-trace` adds
//! the per-request view without touching the hot path's allocation or
//! locking profile:
//!
//! * **[`RequestSpan`]** — a two-word handle minted at frame decode
//!   (`openapi-net`) or at `submit`, carried on the job, and stamped on
//!   every event. Batch items are children of the frame's span.
//! * **The event ring** ([`ring::Ring`]) — a fixed-capacity lock-free
//!   MPSC ring of [`TraceEvent`]s (span, parent, stage, monotonic nanos,
//!   payload). Writers claim-and-commit with a per-slot seqlock; the ring
//!   overwrites oldest and never blocks or tears (model-checked in
//!   `tests/loom.rs`). [`snapshot_events`] drains a consistent view.
//! * **[`clock`]** — the serving tier's single `Instant` source
//!   (lint-enforced), so stage timings and trace timestamps share an
//!   epoch.
//! * **[`slowlog`]** — a sampling slow-request log: requests over a
//!   configurable threshold render as an indented stage timeline (or
//!   JSONL) on stderr.
//! * **[`expose`]** — a Prometheus-text builder used by the `Metrics`
//!   wire request and the example server's `--metrics-addr` listener.
//!
//! Tracing is always compiled in. [`set_runtime_enabled`] is its one off
//! switch: with it off, new spans are detached (id 0) and [`emit`] and
//! friends return after one relaxed load, so nothing reaches the ring.
//! The overhead bench flips it to measure one binary both ways.
//!
//! See `docs/OBSERVABILITY.md` for the event model, stage taxonomy, and
//! exposition conventions.

pub mod clock;
mod event;
pub mod expose;
pub mod ring;
pub mod slowlog;
mod span;

pub use event::{Stage, TraceEvent};
pub use span::{current, emit, enter, RequestSpan, SpanGuard};

pub use ring::RingStats;

use openapi_sync::atomic::{AtomicBool, Ordering};

/// Capacity of the global event ring, in events (~192 KiB of atomics).
pub const RING_CAP: usize = 4096;

static RING: ring::Ring<RING_CAP> = ring::Ring::new();

/// Runtime kill switch; `true` at startup. The overhead bench flips it to
/// measure the same binary with and without tracing.
static RUNTIME_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether tracing is live: the runtime switch is on. Event emission
/// checks this once per call.
#[inline]
pub fn enabled() -> bool {
    // ordering: Relaxed — a monitoring kill switch; emission order versus
    // the flip is immaterial (a straggling event is harmless).
    RUNTIME_ENABLED.load(Ordering::Relaxed)
}

/// Flips the runtime kill switch. Used by `net_throughput` to measure
/// enabled-vs-disabled overhead in one binary.
pub fn set_runtime_enabled(on: bool) {
    // ordering: Relaxed — see `enabled`.
    RUNTIME_ENABLED.store(on, Ordering::Relaxed);
}

/// Pushes one event into the global ring (crate-internal hot path).
pub(crate) fn ring_push(ev: &TraceEvent) {
    RING.push(ev);
}

/// Snapshots the global ring's committed events, oldest first.
pub fn snapshot_events() -> Vec<TraceEvent> {
    RING.snapshot()
}

/// The global ring's emit/drop counters.
pub fn ring_stats() -> RingStats {
    RING.stats()
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    // One test body: both halves toggle the process-global kill switch,
    // so running them in parallel test threads would race.
    #[test]
    fn spans_thread_events_into_the_global_ring_and_the_kill_switch_stops_them() {
        the_kill_switch_suppresses_emission();

        let span = RequestSpan::root();
        span.event(Stage::Queue, 123);
        {
            let _g = enter(span);
            emit(Stage::KernelPass, 256);
        }
        let events = snapshot_events();
        let mine: Vec<_> = events.iter().filter(|e| e.span == span.id()).collect();
        let stages: Vec<_> = mine.iter().map(|e| e.stage).collect();
        assert!(stages.contains(&Stage::Begin));
        assert!(stages.contains(&Stage::Queue));
        assert!(stages.contains(&Stage::KernelPass));
        assert!(
            mine.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos),
            "span timestamps must be monotonic"
        );
    }

    fn the_kill_switch_suppresses_emission() {
        set_runtime_enabled(false);
        let span = RequestSpan::root();
        span.event(Stage::Queue, 1);
        set_runtime_enabled(true);
        assert_eq!(span.id(), 0, "disabled spans are detached");
        // Nothing reached the ring while the switch was off: no detached
        // Queue event with our payload exists.
        assert!(!snapshot_events()
            .iter()
            .any(|e| e.span == 0 && e.stage == Stage::Queue && e.payload == 1));
    }
}
