//! Anti-entropy replication across a loopback cluster of `openapi-net`
//! servers sharing one hidden model.
//!
//! Four claims, mirroring what `net_protocol.rs` pins down for a single
//! server:
//!
//! 1. **Each solve is paid once cluster-wide.** After one anti-entropy
//!    exchange, a node that never queried the API warm-serves every
//!    region its peer solved — zero Algorithm-1 solves, and the served
//!    interpretations are bit-identical to the peer's down to the
//!    persisted record frame.
//! 2. **Mismatched models never merge.** A differing model declaration
//!    is refused on both sides of the wire — by the puller from the
//!    server hello, and by the server with a typed `ModelMismatch`
//!    error; a storeless server answers `NoStore`.
//! 3. **Convergence is bounded.** A 2–3 node cluster reaches digest
//!    equality within a bounded number of exchanges, deterministically
//!    (driven) and under the background [`FabricNode`] loop (timed).
//! 4. **Replication is an order-independent set union** (Theorem 2:
//!    regions are immutable and content-addressed, so any interleaving
//!    of record-byte exchange converges to the same bytes) — checked by
//!    property over seeded partitions and shuffles.
//! 5. **Tombstones win the union, permanently.** A region invalidated
//!    for drift replicates as a tombstone fact: a peer that pulls it
//!    suppresses its live copy, a peer that held the tombstone first
//!    refuses the live record no matter which neighbor re-ships it, and
//!    the mixed record/tombstone exchange stays order-independent.

use openapi_repro::api::{CountingApi, TwoRegionPlm};
use openapi_repro::fabric::{sync_peer_once, FabricError};
use openapi_repro::net::{ErrorCode, VERSION};
use openapi_repro::prelude::*;
use openapi_repro::store::{record, DIGEST_BUCKETS};
use openapi_repro::sync::atomic::{AtomicU64, Ordering};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{two_region_plm, DIM};

/// Fresh per-test store directory (same idiom as `store_recovery.rs`).
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — the counter only disambiguates directory names.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "openapi_fabric_it_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic instances alternating between the two regions of
/// [`two_region_plm`]: even `i` lands in region 0, odd in region 1.
fn instance(i: usize) -> Vector {
    TwoRegionPlm::reference_instance(i)
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        // One leader slot per class keeps the canonical per-region solve
        // deterministic, making cross-node bit-identity exact.
        max_leaders_per_class: 1,
        ..ServiceConfig::default()
    }
}

/// A cluster node: a TCP server fronting a durable store.
fn spawn_node(dir: &PathBuf, model_id: u64) -> Server<CountingApi<TwoRegionPlm>> {
    let service =
        InterpretationService::open(CountingApi::new(two_region_plm()), service_config(2), dir)
            .expect("open store dir");
    Server::bind(
        "127.0.0.1:0",
        service,
        ServerConfig {
            model_id,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind")
}

fn fabric_config(model_id: u64) -> FabricConfig {
    FabricConfig {
        model_id,
        ..FabricConfig::default()
    }
}

/// Every record frame a store would ship, as one canonical byte blob
/// (sorted by sync key inside `sync_delta`) — the store's identity for
/// bit-level comparison across nodes.
fn full_dump(store: &RegionStore) -> Vec<u8> {
    let all: Vec<u32> = (0..DIGEST_BUCKETS as u32).collect();
    let delta = store.sync_delta(&all, &[], usize::MAX);
    assert!(!delta.truncated, "usize::MAX budget never truncates");
    delta.frames
}

/// The acceptance scenario: node A pays the Algorithm-1 solves, one
/// anti-entropy exchange replicates them, and node B then serves the
/// same traffic with **zero** solves and bit-identical interpretations.
#[test]
fn peer_warm_serves_every_replicated_region_with_zero_solves() {
    const INSTANCES: usize = 8;
    let dir_a = temp_dir("warm_a");
    let dir_b = temp_dir("warm_b");
    let server_a = spawn_node(&dir_a, 7);
    let server_b = spawn_node(&dir_b, 7);

    // Node A pays the solves over the wire.
    let mut client_a = Client::connect(server_a.local_addr()).expect("handshake A");
    let baseline: Vec<_> = (0..INSTANCES)
        .map(|i| client_a.interpret(&instance(i), 0).expect("A serves"))
        .collect();
    let stats_a = server_a.service().stats();
    assert_eq!(stats_a.misses, 2, "two regions, one canonical solve each");

    // One driven anti-entropy exchange: B pulls everything A has.
    let core_a = server_a.service().core();
    let core_b = server_b.service().core();
    let report = sync_peer_once(
        &core_b,
        &server_a.local_addr().to_string(),
        &fabric_config(7),
    )
    .expect("exchange succeeds");
    assert!(report.converged, "B must hold everything A had: {report:?}");
    assert_eq!(report.ingested, 2);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.duplicates, 0);

    // The stores now agree bucket for bucket — and byte for byte.
    let store_a = core_a.store().expect("A has a store");
    let store_b = core_b.store().expect("B has a store");
    assert_eq!(store_a.digest(), store_b.digest());
    assert_eq!(store_a.record_keys(), store_b.record_keys());
    assert_eq!(full_dump(store_a), full_dump(store_b));

    // A second exchange is a no-op: idempotent, nothing re-shipped.
    let again = sync_peer_once(
        &core_b,
        &server_a.local_addr().to_string(),
        &fabric_config(7),
    )
    .expect("idempotent exchange");
    assert!(again.converged);
    assert_eq!(again.pulled_records, 0);
    assert_eq!(again.ingested, 0);

    // Node B serves the identical traffic without ever touching its API:
    // zero Algorithm-1 solves, every answer bit-identical to node A's.
    let mut client_b = Client::connect(server_b.local_addr()).expect("handshake B");
    for (i, from_a) in baseline.iter().enumerate() {
        let from_b = client_b.interpret(&instance(i), 0).expect("B warm-serves");
        assert_ne!(
            from_b.outcome,
            ServeOutcome::Solved,
            "instance {i} solved on B"
        );
        assert_eq!(from_b.fingerprint, from_a.fingerprint);
        assert_eq!(from_b.interpretation, from_a.interpretation);
        // Down to the persisted record frame, not just structural equality.
        assert_eq!(
            record::encode_record(from_b.fingerprint, &from_b.interpretation),
            record::encode_record(from_a.fingerprint, &from_a.interpretation),
        );
    }
    let stats_b = server_b.service().stats();
    assert_eq!(stats_b.misses, 0, "node B must pay zero API solves");
    assert_eq!(stats_b.failures, 0);
    let fabric_b = stats_b.fabric.expect("fabric stats active after ingest");
    assert_eq!(fabric_b.ingested, 2);
    assert_eq!(fabric_b.rejected, 0);

    drop((client_a, client_b, core_a, core_b));
    server_b.close().expect("B closes clean");
    server_a.close().expect("A closes clean");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Model safety on both sides of the wire: the puller refuses a peer
/// whose hello declares a different model, the server refuses a caller
/// whose digest request declares a different shape, and a storeless
/// server answers `NoStore`.
#[test]
fn mismatched_models_and_missing_stores_are_refused_with_typed_errors() {
    let dir_a = temp_dir("mm_a");
    let dir_b = temp_dir("mm_b");
    let server_a = spawn_node(&dir_a, 1);
    let server_b = spawn_node(&dir_b, 2);

    // Puller side: the hello's model id differs — refused before any
    // record moves.
    let core_b = server_b.service().core();
    match sync_peer_once(
        &core_b,
        &server_a.local_addr().to_string(),
        &fabric_config(2),
    ) {
        Err(FabricError::ModelMismatch { local, remote }) => {
            assert_eq!(local.model_id, 2);
            assert_eq!(remote.model_id, 1);
            assert_eq!(local.dim, DIM);
            assert_eq!(remote.dim, DIM);
        }
        other => panic!("expected ModelMismatch, got {other:?}"),
    }
    assert_eq!(core_b.store().expect("B has a store").len(), 0);

    // Server side: a caller that skips the hello check still gets the
    // typed refusal when its declared shape disagrees.
    let mut client = Client::connect(server_a.local_addr()).expect("handshake");
    assert_eq!(client.server_model().model_id, 1);
    assert_eq!(client.server_model().dim, DIM);
    let bogus = ModelInfo {
        dim: DIM + 1,
        num_classes: 3,
        model_id: 1,
    };
    match client.sync_digest(&bogus) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::ModelMismatch),
        other => panic!("expected remote ModelMismatch, got {other:?}"),
    }
    // The connection survives a refusal: a correct declaration works.
    let correct = client.server_model();
    let digest = client
        .sync_digest(&correct)
        .expect("correct declaration accepted");
    assert_eq!(digest.total(), 0);

    // A storeless node refuses to sync out...
    let storeless =
        InterpretationService::new(CountingApi::new(two_region_plm()), service_config(1));
    let server_c = Server::bind("127.0.0.1:0", storeless, ServerConfig::default()).expect("bind");
    let core_c = server_c.service().core();
    match sync_peer_once(
        &core_c,
        &server_a.local_addr().to_string(),
        &fabric_config(0),
    ) {
        Err(FabricError::NoLocalStore) => {}
        other => panic!("expected NoLocalStore, got {other:?}"),
    }
    // ...and refuses to sync in, with the typed wire error.
    let mut client_c = Client::connect(server_c.local_addr()).expect("handshake");
    let model_c = client_c.server_model();
    match client_c.sync_digest(&model_c) {
        Err(ClientError::Remote(e)) => assert_eq!(e.code, ErrorCode::NoStore),
        other => panic!("expected remote NoStore, got {other:?}"),
    }

    drop((client, client_c, core_b, core_c));
    server_c.close().expect("C closes clean");
    server_b.close().expect("B closes clean");
    server_a.close().expect("A closes clean");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A 3-node ring with disjoint traffic converges to digest equality in
/// a bounded number of driven passes (here: one ring pass — B pulls A,
/// C pulls B, A pulls C — leaves every store holding the full union).
#[test]
fn three_node_ring_converges_to_digest_equality_in_bounded_passes() {
    let dirs: Vec<PathBuf> = ["ring_a", "ring_b", "ring_c"]
        .iter()
        .map(|t| temp_dir(t))
        .collect();
    let servers: Vec<_> = dirs.iter().map(|d| spawn_node(d, 3)).collect();

    // Disjoint traffic: A solves region 0 (even instances), B solves
    // region 1 (odd instances), C stays cold.
    for i in [0usize, 2] {
        servers[0]
            .service()
            .submit_instance(instance(i), 0)
            .wait()
            .expect("A solves region 0");
    }
    for i in [1usize, 3] {
        servers[1]
            .service()
            .submit_instance(instance(i), 0)
            .wait()
            .expect("B solves region 1");
    }

    let cores: Vec<_> = servers.iter().map(|s| s.service().core()).collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let config = fabric_config(3);
    let digests_agree = |cores: &[ServiceCore<CountingApi<TwoRegionPlm>>]| {
        let first = cores[0].store().expect("store").digest();
        cores[1..]
            .iter()
            .all(|c| c.store().expect("store").digest() == first)
    };

    const PASS_BOUND: usize = 3;
    let mut passes = 0;
    while !digests_agree(&cores) {
        assert!(
            passes < PASS_BOUND,
            "no convergence within {PASS_BOUND} ring passes"
        );
        // One ring pass: each node pulls from its predecessor.
        for (me, pred) in [(1usize, 0usize), (2, 1), (0, 2)] {
            sync_peer_once(&cores[me], &addrs[pred], &config).expect("ring exchange");
        }
        passes += 1;
    }
    assert!(passes <= PASS_BOUND);

    // Full union everywhere, bit for bit.
    let dump = full_dump(cores[0].store().expect("store"));
    for core in &cores[1..] {
        let store = core.store().expect("store");
        assert_eq!(store.len(), 2, "both regions replicated");
        assert_eq!(full_dump(store), dump);
    }

    drop(cores);
    for server in servers {
        server.close().expect("closes clean");
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The background gossip loop reaches the same fixed point without any
/// driving: two [`FabricNode`]s on a short interval converge to digest
/// equality, after which the cold node warm-serves with zero solves.
#[test]
fn background_fabric_nodes_converge_and_then_warm_serve() {
    let dir_a = temp_dir("bg_a");
    let dir_b = temp_dir("bg_b");
    let server_a = spawn_node(&dir_a, 9);
    let server_b = spawn_node(&dir_b, 9);

    for i in 0..4 {
        server_a
            .service()
            .submit_instance(instance(i), 0)
            .wait()
            .expect("A solves");
    }

    let core_a = server_a.service().core();
    let core_b = server_b.service().core();
    let make_config = |peer: &Server<CountingApi<TwoRegionPlm>>| FabricConfig {
        peers: vec![peer.local_addr().to_string()],
        interval: Duration::from_millis(20),
        model_id: 9,
        ..FabricConfig::default()
    };
    let fabric_a = FabricNode::spawn(core_a.clone(), make_config(&server_b));
    let fabric_b = FabricNode::spawn(core_b.clone(), make_config(&server_a));

    // Poll for digest equality with a generous deadline; the loop ticks
    // every 20ms, so convergence is expected within a few ticks.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let a = core_a.store().expect("store").digest();
        let b = core_b.store().expect("store").digest();
        if a == b && a.total() == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no background convergence within 30s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Shut the fabric down before the servers (the nodes hold live
    // `ServiceCore` clones).
    fabric_b.shutdown();
    fabric_a.shutdown();

    let fabric_stats = server_b.service().stats().fabric.expect("fabric active");
    assert_eq!(fabric_stats.peers, 1);
    assert!(fabric_stats.rounds >= 1);
    assert_eq!(fabric_stats.ingested, 2);
    assert_eq!(fabric_stats.rejected, 0);

    let mut client_b = Client::connect(server_b.local_addr()).expect("handshake");
    assert_eq!(client_b.server_model().model_id, 9);
    for i in 0..4 {
        let served = client_b.interpret(&instance(i), 0).expect("B warm-serves");
        assert_ne!(served.outcome, ServeOutcome::Solved);
    }
    assert_eq!(server_b.service().stats().misses, 0);

    drop((client_b, core_a, core_b));
    server_b.close().expect("B closes clean");
    server_a.close().expect("A closes clean");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Version sanity for the fabric protocol: the handshake that carries
/// the model declaration is protocol v2.
#[test]
fn fabric_requires_protocol_v2() {
    assert_eq!(VERSION, 2);
}

/// An unbounded pull budget is clamped server-side to what one reply
/// frame can carry, not refused or truncated: a peer asking for
/// `u64::MAX` bytes of a small store gets its whole delta in one reply.
#[test]
fn unbounded_pull_budget_still_returns_the_full_delta() {
    let dir = temp_dir("unbounded");
    let server = spawn_node(&dir, 3);
    let mut client = Client::connect(server.local_addr()).expect("handshake");
    for i in 0..4 {
        client.interpret(&instance(i), 0).expect("serves");
    }
    let store = server.service().store().expect("node has a store");

    let all: Vec<u32> = (0..DIGEST_BUCKETS as u32).collect();
    let delta = client
        .sync_pull(&all, &[], usize::MAX)
        .expect("an unbounded pull is answered");
    assert_eq!(delta.records, 2, "two regions, one record each");
    assert!(!delta.truncated);
    assert_eq!(delta.frames, full_dump(store));

    drop(client);
    server.close().expect("closes clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The anti-resurrection scenario: once any node tombstones a region,
/// the suppression replicates like any other fact, beats the live record
/// in every arrival order, and drives the cluster back to digest
/// equality — a forgotten region stays forgotten cluster-wide.
#[test]
fn replicated_tombstone_beats_the_live_record_in_any_order() {
    let dir_a = temp_dir("tomb_a");
    let dir_b = temp_dir("tomb_b");
    let dir_c = temp_dir("tomb_c");
    let server_a = spawn_node(&dir_a, 5);
    let server_b = spawn_node(&dir_b, 5);
    let server_c = spawn_node(&dir_c, 5);
    let core_a = server_a.service().core();
    let core_b = server_b.service().core();
    let core_c = server_c.service().core();
    let addr_a = server_a.local_addr().to_string();
    let addr_b = server_b.local_addr().to_string();
    let config = fabric_config(5);

    // A solves both regions; B replicates them while they are still live.
    let stale = server_a
        .service()
        .submit_instance(instance(0), 0)
        .wait()
        .expect("A solves region 0");
    server_a
        .service()
        .submit_instance(instance(1), 0)
        .wait()
        .expect("A solves region 1");
    let report = sync_peer_once(&core_b, &addr_a, &config).expect("B pulls live records");
    assert_eq!(report.ingested, 2);

    // A invalidates region 0 (the drift detector's verdict, applied via
    // the same entry point the fabric uses).
    assert!(core_a.apply_tombstone(0, stale.fingerprint));
    let store_a = core_a.store().expect("A has a store");
    assert!(store_a.contains_tombstone(0, stale.fingerprint));
    assert_eq!(store_a.len(), 1);

    // Tombstone-first arrival: cold node C pulls A, receiving the
    // surviving live record AND the tombstone — before ever seeing the
    // stale live record.
    let report = sync_peer_once(&core_c, &addr_a, &config).expect("C pulls A");
    assert!(report.converged, "C must hold everything A had: {report:?}");
    assert_eq!(report.ingested, 2, "one live record + one tombstone");
    assert_eq!(report.rejected, 0);
    let store_c = core_c.store().expect("C has a store");
    assert!(store_c.contains_tombstone(0, stale.fingerprint));

    // Resurrection attempt: B still holds the stale live record and
    // happily ships it. C must refuse it — the tombstone wins.
    let one_round = FabricConfig {
        max_rounds: 1,
        ..fabric_config(5)
    };
    let report = sync_peer_once(&core_c, &addr_b, &one_round).expect("C pulls B");
    assert_eq!(report.ingested, 0, "nothing from B is news to C");
    assert!(
        report.pulled_records == 0 || report.duplicates > 0,
        "a re-shipped stale record counts as a duplicate, never an ingest: {report:?}"
    );
    assert!(
        !store_c.contains_fingerprint(0, stale.fingerprint),
        "the stale region must not resurface on C"
    );
    assert!(store_c.contains_tombstone(0, stale.fingerprint));

    // Late tombstone arrival: B pulls A and suppresses its live copy.
    let report = sync_peer_once(&core_b, &addr_a, &config).expect("B pulls A");
    assert!(report.converged);
    let store_b = core_b.store().expect("B has a store");
    assert!(store_b.contains_tombstone(0, stale.fingerprint));
    assert!(!store_b.contains_fingerprint(0, stale.fingerprint));

    // The regression the digest must catch: all three nodes tombstoned
    // the same region by different routes, and their digests agree — a
    // digest blind to tombstones would report false divergence here.
    assert_eq!(store_a.digest(), store_b.digest());
    assert_eq!(store_a.digest(), store_c.digest());
    assert_eq!(full_dump(store_a), full_dump(store_b));
    assert_eq!(full_dump(store_a), full_dump(store_c));
    for store in [store_a, store_b, store_c] {
        assert_eq!(store.len(), 1, "one live region survives cluster-wide");
        assert_eq!(store.tombstone_count(), 1);
    }

    drop((core_a, core_b, core_c));
    server_c.close().expect("C closes clean");
    server_b.close().expect("B closes clean");
    server_a.close().expect("A closes clean");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_dir_all(&dir_c);
}

/// Builds a small synthetic pool of distinct, well-formed records.
fn synthetic_records(count: usize) -> Vec<(RegionFingerprint, Arc<Interpretation>)> {
    const C: usize = 3;
    (0..count)
        .map(|k| {
            let class = k % C;
            let pairwise: Vec<PairwiseCoreParams> = (0..C)
                .filter(|&c| c != class)
                .map(|c_prime| PairwiseCoreParams {
                    c_prime,
                    weights: Vector::from(vec![
                        k as f64 + 0.25,
                        -(c_prime as f64) - 0.5,
                        (k * 7 % 11) as f64 * 0.125,
                        1.0,
                    ]),
                    bias: k as f64 * 0.5 - c_prime as f64,
                })
                .collect();
            let interpretation =
                Interpretation::from_pairwise(class, pairwise).expect("well-formed");
            let fingerprint = interpretation.fingerprint(6);
            (fingerprint, Arc::new(interpretation))
        })
        .collect()
}

/// The WAL frame either kind of store record encodes to.
fn frame_of(r: &record::StoreRecord) -> Vec<u8> {
    match r {
        record::StoreRecord::Live(r) => record::encode_record(r.fingerprint, &r.interpretation),
        record::StoreRecord::Tombstone(t) => record::encode_tombstone(*t),
    }
}

/// Deterministic pseudo-shuffle: a seeded keyed sort, so each proptest
/// case exercises a different ingestion interleaving — live records and
/// tombstones mixed — without needing a runtime RNG.
fn shuffled(mut records: Vec<record::StoreRecord>, seed: u64) -> Vec<record::StoreRecord> {
    records.sort_by_key(|r| {
        frame_of(r)
            .iter()
            .fold(seed.wrapping_mul(0x9E3779B97F4A7C15), |acc, &b| {
                acc.rotate_left(7) ^ u64::from(b)
            })
    });
    records
}

/// Pulls every frame `from` would ship past `have`, decodes both record
/// kinds, and applies them to `into` in a seed-dependent order.
fn exchange(from: &RegionStore, into: &RegionStore, seed: u64) {
    let all: Vec<u32> = (0..DIGEST_BUCKETS as u32).collect();
    let delta = from.sync_delta(&all, &into.record_keys(), usize::MAX);
    let mut frames = delta.frames.as_slice();
    let mut records = Vec::new();
    while !frames.is_empty() {
        records.push(record::get_any_record(&mut frames).expect("frames decode"));
    }
    for r in shuffled(records, seed) {
        match r {
            record::StoreRecord::Live(r) => {
                let _ = into.append(r.fingerprint, r.interpretation);
            }
            record::StoreRecord::Tombstone(t) => {
                let _ = into.tombstone(t.class, t.fingerprint);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem-2 replication property, now with both kinds of immutable
    /// fact: however a record set is partitioned across two stores (with
    /// overlap), wherever the tombstones originate, and however the
    /// exchanged frames are interleaved on ingest, both stores converge
    /// to the same bit-identical union — with every tombstoned key
    /// suppressed on both sides.
    #[test]
    fn record_exchange_is_an_order_independent_set_union(
        seed in 0u64..1_000_000,
        mask in 1u32..(1 << 10) - 1,
        tomb_mask in 0u32..(1 << 10) - 1,
    ) {
        let pool = synthetic_records(10);
        let dir_a = temp_dir("prop_a");
        let dir_b = temp_dir("prop_b");
        let store_a = RegionStore::open(&dir_a, StoreConfig::default()).expect("open A");
        let store_b = RegionStore::open(&dir_b, StoreConfig::default()).expect("open B");

        // Partition by mask bit; every third record lands in both stores
        // so the exchange also crosses duplicates.
        for (k, (fingerprint, interpretation)) in pool.iter().enumerate() {
            let to_a = mask & (1 << k) != 0;
            if to_a || k % 3 == 0 {
                let _ = store_a.append(*fingerprint, Arc::clone(interpretation));
            }
            if !to_a || k % 3 == 0 {
                let _ = store_b.append(*fingerprint, Arc::clone(interpretation));
            }
        }
        // Tombstones originate on the seed-chosen side — including for
        // keys that side never held (the fact can outrun the record).
        for (k, (fingerprint, interpretation)) in pool.iter().enumerate() {
            if tomb_mask & (1 << k) != 0 {
                let origin = if (seed >> k) & 1 == 0 { &store_a } else { &store_b };
                let _ = origin.tombstone(interpretation.class, *fingerprint);
            }
        }

        // Exchange in both directions, each with its own interleaving;
        // one more round so late tombstones reach the far side too.
        exchange(&store_a, &store_b, seed);
        exchange(&store_b, &store_a, seed.rotate_left(17));
        exchange(&store_a, &store_b, seed.rotate_left(31));

        // Same set, same digest, same bytes — regardless of seed/masks —
        // and tombstones won everywhere they apply.
        let tombstoned = (0..pool.len()).filter(|k| tomb_mask & (1 << k) != 0).count();
        prop_assert_eq!(store_a.len(), pool.len() - tombstoned);
        prop_assert_eq!(store_a.tombstone_count(), tombstoned);
        prop_assert_eq!(store_a.record_keys(), store_b.record_keys());
        prop_assert_eq!(store_a.digest(), store_b.digest());
        prop_assert_eq!(full_dump(&store_a), full_dump(&store_b));
        for (k, (fingerprint, interpretation)) in pool.iter().enumerate() {
            let dead = tomb_mask & (1 << k) != 0;
            for store in [&store_a, &store_b] {
                prop_assert_eq!(store.contains_tombstone(interpretation.class, *fingerprint), dead);
                prop_assert_eq!(store.contains_fingerprint(interpretation.class, *fingerprint), !dead);
            }
        }

        drop((store_a, store_b));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
