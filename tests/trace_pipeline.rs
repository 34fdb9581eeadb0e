//! End-to-end coverage of the `openapi-trace` tier over a real TCP server.
//!
//! Two or more concurrent clients drive single and batch interpretations
//! through `openapi_net::Server`; the global event ring is then snapshotted
//! and the span graph checked for the structural invariants
//! `docs/OBSERVABILITY.md` promises:
//!
//! 1. **Completeness** — every span the wire reported back (the `span`
//!    field of `RemoteServed`) has a `Begin` and a `Finish` event in the
//!    ring, and a successful request's `Finish` payload is the ok outcome.
//! 2. **Well-parentedness** — every event with a nonzero parent belongs to
//!    a span whose parent span also has events (batch items parent on the
//!    frame span, which is itself a root).
//! 3. **Monotonic timestamps** — within one span, events never go back in
//!    time, and `Begin` is first / `Finish` is last among the serving-path
//!    stages.
//!
//! The whole suite is one `#[test]`: the ring and span allocator are
//! process-global, so a single body keeps the traffic small enough that
//! nothing the assertions need is overwritten (a few hundred events in a
//! 4096-slot ring).

#![cfg(not(loom))]

use openapi_repro::api::{CountingApi, TwoRegionPlm};
use openapi_repro::net::{Client, Server, ServerConfig};
use openapi_repro::prelude::*;
use openapi_repro::trace::{self, Stage, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

const CLIENTS: usize = 3;
const REQUESTS_PER_CLIENT: usize = 6;
const BATCH_ITEMS: usize = 4;

fn spawn_server() -> Server<CountingApi<TwoRegionPlm>> {
    let service = InterpretationService::new(
        CountingApi::new(TwoRegionPlm::reference()),
        ServiceConfig {
            workers: CLIENTS,
            seed: 7,
            ..ServiceConfig::default()
        },
    );
    Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("ephemeral bind")
}

/// Stages a request span emits strictly between `Begin` and `Finish`.
fn is_serving_stage(stage: Stage) -> bool {
    !matches!(stage, Stage::Begin | Stage::Finish | Stage::Reply)
}

#[test]
fn traced_spans_are_complete_well_parented_and_monotonic() {
    let server = spawn_server();
    let addr = server.local_addr();

    // Concurrent traffic: every client interleaves single interprets with
    // one batch, so the ring ends up holding root spans, frame spans, and
    // frame-parented children all at once.
    let served_spans: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("handshake");
                let mut spans = Vec::new();
                for k in 0..REQUESTS_PER_CLIENT {
                    let x = TwoRegionPlm::reference_instance(t + k);
                    let served = client.interpret(&x, 0).expect("interpret");
                    spans.push(served.span);
                }
                let items: Vec<(Vector, usize)> = (0..BATCH_ITEMS)
                    .map(|k| (TwoRegionPlm::reference_instance(t + k), 0))
                    .collect();
                for result in client.interpret_batch(&items, None).expect("batch") {
                    spans.push(result.expect("batch item serves").span);
                }
                spans
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.close().expect("clean close");

    assert_eq!(
        served_spans.len(),
        CLIENTS * (REQUESTS_PER_CLIENT + BATCH_ITEMS)
    );
    let distinct: BTreeSet<u64> = served_spans.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        served_spans.len(),
        "every request must get its own span id"
    );
    assert!(
        !distinct.contains(&0),
        "served spans must be real ids, not the detached span"
    );

    // One consistent snapshot; drained oldest-first by timestamp.
    let events = trace::snapshot_events();
    let mut by_span: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for ev in &events {
        by_span.entry(ev.span).or_default().push(*ev);
    }

    // 1. Completeness: Begin and Finish for every span the wire reported,
    //    with the serving-path stages strictly between them.
    for &span in &distinct {
        let span_events = by_span
            .get(&span)
            .unwrap_or_else(|| panic!("span {span} served over the wire left no events"));
        let stages: Vec<Stage> = span_events.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages.first(),
            Some(&Stage::Begin),
            "span {span} must open with Begin: {stages:?}"
        );
        let finish = span_events
            .iter()
            .find(|e| e.stage == Stage::Finish)
            .unwrap_or_else(|| panic!("span {span} has no Finish: {stages:?}"));
        assert_eq!(finish.payload, 0, "a served request settles ok");
        // Every request pays its membership probe; the queue stage is
        // skipped only by batch items answered straight from the cache at
        // decode time (they never become jobs).
        assert!(
            stages.contains(&Stage::Probe),
            "span {span} must pay its probe: {stages:?}"
        );
        assert!(
            stages.contains(&Stage::Queue) || stages.contains(&Stage::CacheHit),
            "span {span} skipped the queue without a cache hit: {stages:?}"
        );
        let finish_t = finish.t_nanos;
        for ev in span_events {
            if is_serving_stage(ev.stage) {
                assert!(
                    ev.t_nanos <= finish_t,
                    "span {span}: {:?} after Finish",
                    ev.stage
                );
            }
        }
    }

    // 2. Well-parentedness: a nonzero parent is a real span with its own
    //    events, and that parent is a root (the two-level batch shape).
    let mut batch_children = 0;
    for ev in &events {
        if ev.parent == 0 {
            continue;
        }
        let parent_events = by_span.get(&ev.parent).unwrap_or_else(|| {
            panic!(
                "event on span {} names unknown parent {}",
                ev.span, ev.parent
            )
        });
        assert!(
            parent_events
                .iter()
                .all(|p| p.parent == 0 || p.stage == Stage::Reply),
            "parent {} of span {} must itself be a root",
            ev.parent,
            ev.span
        );
        if ev.stage == Stage::Begin {
            batch_children += 1;
        }
    }
    assert_eq!(
        batch_children,
        CLIENTS * BATCH_ITEMS,
        "every batch item must begin as a child of its frame span"
    );

    // 3. Monotonic timestamps within every span (the snapshot is sorted
    //    globally, so per-span order falls out of the filter).
    for (span, span_events) in &by_span {
        assert!(
            span_events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos),
            "span {span}: timestamps went backwards"
        );
    }

    // The ring accounted for everything it was handed.
    let stats = trace::ring_stats();
    assert!(stats.emitted as usize >= events.len());
}
