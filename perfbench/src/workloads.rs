//! The three workloads. Each builds its fixture (timed as `setup_s`), runs
//! one timed phase — or, traced, an untraced half and a traced half — and
//! then gates every reply and, traced, replays its inputs through the
//! layers one by one. See `README.md` beside this crate for why each
//! workload exists.

use crate::gate::Gate;
use crate::gen::{self, Pick};
use crate::host::{self, StealSampler};
use crate::layers;
use crate::quantile::Sorted;
use crate::report::Metrics;
use crate::tally::{median, Phase, Tally, Times, MIN_QUIET_WINDOWS, STEAL_MAX, WINDOW_S};
use crate::trace::{self, Recorded, TimedApi};
use openapi_api::{GroundTruthOracle, PredictionApi, TwoRegionPlm};
use openapi_core::{OpenApiConfig, OpenApiInterpreter, RegionFingerprint};
use openapi_data::synth::SynthStyle;
use openapi_eval::panel::{build_plnn_panel, PanelModel};
use openapi_eval::{ExperimentConfig, Profile};
use openapi_fabric::{sync_peer_once, FabricConfig};
use openapi_linalg::Vector;
use openapi_net::wire::{encode_response, ErrorCode, RemoteServed, Response};
use openapi_net::{Client, ClientError, Server, ServerConfig};
use openapi_serve::{
    InterpretRequest, InterpretationService, ServeOutcome, ServiceConfig, SharedCacheConfig,
};
use openapi_store::{RegionStore, StoreConfig};
use openapi_sync::atomic::{AtomicUsize, Ordering};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over one connection, warm d = 8 two-region model.
    WarmWireD8,
    /// The same with 14 KB replies: a d = 196, C = 10 two-region model.
    WarmWireD196,
    /// Closed loop in process, every request an Algorithm-1 solve on the
    /// d = 8 two-region model, no service.
    ColdSolveD8,
    /// Closed loop in process, every request a fresh d = 196 solve.
    ColdSolveD196,
    /// Open loop over the wire, store-backed, 99% hot / 1% fresh.
    MixedDurableD196,
}

impl Workload {
    /// Every runnable workload. `BENCHMARK.json` declares the first two;
    /// the solving ones run by name only (see `README.md`).
    pub const ALL: [Workload; 5] = [
        Workload::WarmWireD8,
        Workload::WarmWireD196,
        Workload::ColdSolveD8,
        Workload::ColdSolveD196,
        Workload::MixedDurableD196,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmWireD8 => "warm-wire-d8",
            Workload::WarmWireD196 => "warm-wire-d196",
            Workload::ColdSolveD8 => "cold-solve-d8",
            Workload::ColdSolveD196 => "cold-solve-d196",
            Workload::MixedDurableD196 => "mixed-durable-d196",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Scratch directory (store files, span dumps), inside the checkout.
    pub scratch: PathBuf,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Requests attempted in the timed phase(s).
    pub attempted: u64,
    /// Requests that errored, were refused, or failed the gate.
    pub failed: u64,
    /// Every metric measured (the caller prints the declared subset).
    pub metrics: Metrics,
    /// Human-readable lines for the log.
    pub notes: Vec<String>,
    /// Why the run is not correct (empty when it is).
    pub failures: Vec<String>,
    /// Spans of a traced run.
    pub recorded: Option<Recorded>,
}

/// Request rate the d = 8 tally buffers are sized for: well above the
/// 12–15k req/s of one loopback connection on the recording host.
const D8_MAX_RPS: f64 = 100_000.0;
/// Request rate the d = 196 warm tally buffers are sized for: well above
/// the ~3k req/s of its one connection on the recording host.
const D196_MAX_RPS: f64 = 30_000.0;
/// Hot instances of the warm workloads (alternating regions).
const HOT_D8: usize = 64;
/// Instances of the cold d = 8 workload, cycled.
const COLD_D8_POOL: usize = 4096;
/// The class every warm request interprets.
const CLASS_D8: usize = 0;
/// Distinct-region instances generated for the cold workload; more than
/// a run can solve.
const COLD_POOL: usize = 4000;
/// Cold-pool instances solved in set-up before timing.
const COLD_WARMUP: usize = 4;
/// Hot set of the mixed workload, solved into the store in set-up.
const MIXED_HOT: usize = 128;
/// Fresh instances generated for the mixed workload.
const MIXED_FRESH: usize = 400;
/// Every this-many-th open-loop arrival asks for a fresh instance (1%).
const FRESH_EVERY: usize = 100;
/// Offered rate of `mixed-durable-d196`, requests/s: half the rate at
/// which the backlog starts to grow on the 2-CPU recording host while
/// the hypervisor steals 5–20% of its time (p50 latency 0.9 ms at 600
/// req/s, 24 ms at 1,000; on a quiet host the backlog starts near 2,000).
const MIXED_RATE: f64 = 500.0;
/// Set-up repetitions whose median is `setup_s`, per workload: more where
/// one set-up is short (0.5–1 ms at d = 8, where thread start-up and the
/// loopback connect make single set-ups vary by 2×; ~20 ms for the
/// d = 196 warm model) and so noisier, fewer where it is long (about 2 s
/// for the store fill).
const SHORT_SETUP_REPS: usize = 45;
const COLD_SETUP_REPS: usize = 5;
const MIXED_SETUP_REPS: usize = 3;
/// Algorithm-1 solves replayed for `core.solve_*` (p99 needs 1,000).
const REPLAY_SOLVES: usize = 1000;
/// Single iterations replayed for the assemble/factor/check figures.
const REPLAY_SYSTEMS: usize = 200;
/// Membership lookups replayed against the live cache.
const REPLAY_LOOKUPS: usize = 4000;
/// Pings for `net.ping_p50_ms`.
const PINGS: usize = 2000;
/// Regions a traced run replays into a fresh store.
const STORE_REPLAY: usize = 200;

/// Removes the scratch directory when dropped, panics included.
struct Scratch<'a>(&'a Path);

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.0).ok();
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Runs `opts.workload`.
pub fn run(opts: &Options) -> RunResult {
    std::fs::create_dir_all(&opts.scratch).expect("scratch directory is creatable");
    let _scratch = Scratch(&opts.scratch);
    match opts.workload {
        Workload::WarmWireD8 => warm_wire(
            opts,
            WarmSpec {
                model: TwoRegionPlm::reference,
                hot: (0..HOT_D8).map(TwoRegionPlm::reference_instance).collect(),
                class: CLASS_D8,
                max_rps: D8_MAX_RPS,
            },
        ),
        Workload::WarmWireD196 => warm_wire(
            opts,
            WarmSpec {
                model: gen::wide_two_region_model,
                hot: gen::wide_hot_instances(opts.seed, HOT_D8),
                class: CLASS_D8,
                max_rps: D196_MAX_RPS,
            },
        ),
        Workload::ColdSolveD8 => cold_solve_d8(opts),
        Workload::ColdSolveD196 => cold_solve_d196(opts),
        Workload::MixedDurableD196 => mixed_durable_d196(opts),
    }
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        workers: host::nproc(),
        seed,
        ..ServiceConfig::default()
    }
}

fn membership_rtol() -> f64 {
    SharedCacheConfig::default().membership_rtol
}

/// Runs `setup` `reps` times, keeping the last fixture; returns it with
/// the median wall time in seconds. Earlier fixtures are dropped before
/// the next repetition starts its clock.
fn repeated_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(rep));
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (
        kept.expect("at least one repetition"),
        times[times.len() / 2],
    )
}

/// The untraced phase, and the traced one of a traced run.
struct Phases {
    main: Phase,
    traced: Option<(Phase, Recorded)>,
}

/// Runs the timed phase(s): one of `opts.seconds` untraced, or, traced,
/// an untraced half then a traced half (the ratio of the two is
/// `bench.trace_overhead`).
fn phases(opts: &Options, mut run: impl FnMut(Duration, u64) -> Phase) -> Phases {
    let mut sampled = |length: Duration, k: u64| {
        let sampler = StealSampler::start(Duration::from_secs_f64(WINDOW_S));
        let mut phase = run(length, k);
        phase.window_steal = sampler.stop();
        phase
    };
    if !opts.trace {
        let main = sampled(Duration::from_secs_f64(opts.seconds), 0);
        return Phases { main, traced: None };
    }
    let half = Duration::from_secs_f64(opts.seconds / 2.0);
    let main = sampled(half, 0);
    trace::set_enabled(true);
    let traced = sampled(half, 1);
    trace::set_enabled(false);
    Phases {
        main,
        traced: Some((traced, trace::drain())),
    }
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(phase: &Phase, setup_s: f64, m: &mut Metrics, result: &mut RunResult) {
    let n = (phase.length.as_secs_f64() / WINDOW_S).floor() as usize;
    let quiet = phase.quiet_windows();
    result.notes.push(if quiet >= MIN_QUIET_WINDOWS {
        format!(
            "windowed medians over the {quiet} of {n} windows with at most {:.0}% steal",
            STEAL_MAX * 100.0
        )
    } else {
        format!(
            "windowed medians over all {n} windows (only {quiet} had at most {:.0}% steal)",
            STEAL_MAX * 100.0
        )
    });
    m.set("throughput_rps", phase.throughput());
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        match phase.latency(q) {
            Ok(v) => m.set(name, v),
            Err(e) => result.failures.push(format!("{name}: {e}")),
        }
    }
    m.set("queries_per_request", phase.queries_per_request());
    m.set("setup_s", setup_s);
    m.set("rss_peak_mb", host::rss_peak_mib());
}

/// Per-layer metrics every workload shares: api, serve, bench, and the
/// request-time shares.
fn common_layers(
    opts: &Options,
    phases: &Phases,
    workers: usize,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let (traced, rec) = phases.traced.as_ref().expect("traced run");
    let api = Sorted::new(
        rec.api_samples
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect(),
    );
    m.set("api.predict_p50_us", api.percentile_or_zero(0.5));
    m.set(
        "api.busy_share",
        rec.api_total_ns as f64 / (traced.wall_s * 1e9 * workers as f64),
    );
    let from_send = traced.tally.from_send_ms();
    let request_ns = from_send.mean() * from_send.len() as f64 * 1e6;
    m.set("api.share", rec.api_total_ns as f64 / request_ns.max(1.0));
    if let Some((before, after)) = &traced.stats {
        layers::serve_metrics(before, after, m);
    }
    let mut lag = phases.main.tally.lag_ms();
    lag.extend(traced.tally.lag_ms());
    m.set(
        "bench.generator_lag_p99_ms",
        Sorted::new(lag).percentile_or_zero(0.99),
    );
    m.set(
        "bench.trace_overhead",
        traced.throughput() / phases.main.throughput(),
    );
    notes.push(format!(
        "traced half {:.0} req/s vs untraced half {:.0} req/s ({} s each, seed {})",
        traced.throughput(),
        phases.main.throughput(),
        opts.seconds / 2.0,
        opts.seed
    ));
}

/// `net` metrics from the traced phase plus pings on a fresh connection.
fn net_layers(addr: SocketAddr, traced: &Phase, gate: &Gate, m: &mut Metrics) {
    let mut client = Client::connect(addr).expect("loopback connect");
    let pings: Vec<f64> = (0..PINGS)
        .map(|_| {
            trace::span("net.ping", || client.ping())
                .map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3)
        })
        .collect();
    m.set(
        "net.ping_p50_ms",
        Sorted::new(pings).percentile_or_zero(0.5),
    );
    let (client, server) = (traced.tally.from_send_ms(), traced.tally.service_ms());
    let client_p50 = client.percentile_or_zero(0.5);
    let server_p50 = server.percentile_or_zero(0.5);
    m.set("net.overhead_p50_ms", client_p50 - server_p50);
    // Reply size as encoded on the wire, averaged over requests.
    let mut size_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut bytes = 0u64;
    for (&(_, fp), &n) in traced.tally.pairs() {
        let size = *size_of.entry(fp).or_insert_with(|| {
            let interpretation = gate.region(fp).expect("observed region");
            encode_response(&Response::Interpreted(RemoteServed {
                interpretation: std::sync::Arc::clone(interpretation),
                fingerprint: RegionFingerprint(fp),
                outcome: ServeOutcome::CacheHit,
                queries: 1,
                server_latency: Duration::ZERO,
                span: 0,
            }))
            .len()
        });
        bytes += size as u64 * n;
    }
    m.set(
        "net.reply_bytes",
        bytes as f64 / traced.tally.served_count().max(1) as f64,
    );
    m.set("net.busy_rejects", traced.tally.busy() as f64);
    let (client_mean, server_mean) = (client.mean(), server.mean());
    m.set(
        "net.share",
        (client_mean - server_mean) / client_mean.max(f64::MIN_POSITIVE),
    );
}

/// `core` and `linalg` replays over `instances` through `api`, plus the
/// cache-scan and solve shares of the traced phase's request time.
fn core_layers<M: PredictionApi + Sync>(
    opts: &Options,
    api: &M,
    cache: Option<&openapi_serve::SharedRegionCache>,
    instances: &[(Vector, usize)],
    traced: &Phase,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let d = api.dim();
    let solves = layers::replay_solves(api, instances, REPLAY_SOLVES, host::nproc(), opts.seed);
    layers::solve_metrics(&solves, d, m);
    let algebra = layers::replay_algebra(api, instances, REPLAY_SYSTEMS, opts.seed);
    layers::algebra_metrics(&algebra, m);
    let lookups = Sorted::new(cache.map_or_else(Vec::new, |cache| {
        layers::replay_lookups(cache, api, instances, REPLAY_LOOKUPS)
    }));
    m.set("core.cache_lookup_p50_us", lookups.percentile_or_zero(0.5));
    let request_ms = traced.tally.from_send_ms().mean();
    let n = traced.tally.served_count().max(1) as f64;
    let solved = traced.tally.outcome(ServeOutcome::Solved).0 as f64;
    let hits = n - solved;
    m.set(
        "core.scan_share",
        hits / n * lookups.mean() / 1e3 / request_ms.max(f64::MIN_POSITIVE),
    );
    let solve_ms = Sorted::new(solves.solve_ms.clone()).mean();
    m.set(
        "core.solve_share",
        solved / n * solve_ms / request_ms.max(f64::MIN_POSITIVE),
    );
    notes.push(format!(
        "replay: {} solves (mean {:.3} ms, {:.2} iterations, {:.0} queries), scan {:.1} us over {} cached regions",
        solves.solve_ms.len(),
        solve_ms,
        m.get("core.iterations_mean").unwrap_or(0.0),
        Sorted::new(solves.queries.iter().map(|&q| q as f64).collect()).mean(),
        lookups.mean(),
        cache.map_or(0, |c| c.len())
    ));
}

/// Exactness and Theorem 2 for every distinct (instance, region) pair a
/// tally served.
fn gate_replies<M: GroundTruthOracle>(
    tally: &mut Tally,
    model: &M,
    instance: impl Fn(usize) -> (Vector, usize),
) -> u64 {
    let pairs: BTreeMap<(u32, u64), u64> =
        tally.pairs().iter().map(|(&pair, &n)| (pair, n)).collect();
    let rtol = membership_rtol();
    let mut wrong = 0;
    for ((i, fp), n) in pairs {
        let (x, class) = instance(i as usize);
        let gate = tally.gate_mut();
        let interpretation = std::sync::Arc::clone(gate.region(fp).expect("observed"));
        if !gate.check_exact(model, &x, class, &interpretation, rtol) {
            wrong += n;
        }
    }
    wrong
}

/// Folds a phase's gate verdicts and errors into the run result.
fn settle(result: &mut RunResult, tally: &Tally, wrong: u64) {
    result.attempted += tally.attempted();
    result.failed += tally.failed_count() + wrong;
    result
        .failures
        .extend(tally.gate().failures().iter().cloned());
    result.failures.extend(tally.errors().iter().cloned());
}

fn paper_note(phase: &Phase, d: usize) -> String {
    let (solves, queries) = phase.tally.outcome(ServeOutcome::Solved);
    let (iterations, useful) = layers::paper_model(solves, queries, d);
    format!(
        "queries_per_request {:.3} | paper model: {} queries per hypercube iteration, {} useful per solve; core.iterations_mean {:.3}, core.useful_query_share {:.4}",
        phase.queries_per_request(),
        d + 1,
        d + 2,
        iterations,
        useful
    )
}

// ---------------------------------------------------------------- warm-wire-d8

type D8Server = Server<TimedApi<TwoRegionPlm>>;

/// A warm wire workload's model and inputs.
struct WarmSpec {
    model: fn() -> TwoRegionPlm,
    hot: Vec<Vector>,
    class: usize,
    /// Requests per second the tally buffers are sized for.
    max_rps: f64,
}

/// `warm-wire-d8` and `warm-wire-d196`: one connection, closed loop over
/// the hot instances of a two-region model whose regions set-up warms.
fn warm_wire(opts: &Options, spec: WarmSpec) -> RunResult {
    let WarmSpec {
        model,
        hot,
        class,
        max_rps,
    } = spec;
    let reps = if opts.trace { 1 } else { SHORT_SETUP_REPS };
    let (server, setup_s): (D8Server, f64) = repeated_setup(reps, |_| {
        let service = InterpretationService::new(TimedApi::new(model()), service_config(opts.seed));
        let server =
            Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("loopback bind");
        let mut client = Client::connect(server.local_addr()).expect("loopback connect");
        for x in &hot[..2] {
            client.interpret(x, class).expect("warm-up solve");
        }
        server
    });
    let setup_rss = host::rss_peak_mib();
    let svc = server.service();
    let mut order = gen::warm_order(opts.seed, hot.len());
    let mut client = Client::connect(server.local_addr()).expect("loopback connect");
    let mut phases = phases(opts, |length, _| {
        let before = svc.stats();
        let mut tally = Tally::with_capacity((length.as_secs_f64() * max_rps) as usize);
        let start = Instant::now();
        let phase_ns = trace::now_ns();
        let mut prev_end = phase_ns;
        while start.elapsed() < length {
            let i = order.next().expect("the order is endless");
            let send = trace::now_ns();
            let result = trace::span("bench.request", || {
                let r = client.interpret(&hot[i], class);
                if let (true, Ok(s)) = (trace::enabled(), &r) {
                    let end = trace::now_ns();
                    let server_ns = s.server_latency.as_nanos() as u64;
                    trace::record("serve.service", trace::current_id(), end - server_ns, end);
                }
                r
            });
            let end = trace::now_ns();
            let t = Times {
                phase_ns,
                due_ns: send,
                send_ns: send,
                end_ns: end,
                lag_ns: send - prev_end,
            };
            match &result {
                Ok(s) => tally.served(i, s.into(), t, trace::enabled()),
                Err(e) => tally.failed(format!("request: {e}"), is_busy(e), t),
            }
            prev_end = end;
        }
        Phase {
            wall_s: start.elapsed().as_secs_f64(),
            length,
            tally,
            stats: Some((before, svc.stats())),
            window_steal: Vec::new(),
        }
    });
    let mut result = RunResult::default();
    check_warm_counts(&phases.main, &mut result);
    if let Some((traced, _)) = phases.traced.as_ref() {
        check_warm_counts(traced, &mut result);
    }
    let mut m = Metrics::new();
    if opts.trace {
        let workers = svc.config().workers;
        common_layers(opts, &phases, workers, &mut m, &mut result.notes);
        let (traced, _) = phases.traced.as_ref().expect("traced run");
        trace::set_enabled(true);
        net_layers(server.local_addr(), traced, traced.tally.gate(), &mut m);
        store_fabric_layers(
            opts,
            || TimedApi::new(model()),
            &traced.tally,
            &mut m,
            &mut result,
        );
        let instances: Vec<(Vector, usize)> = hot.iter().map(|x| (x.clone(), class)).collect();
        core_layers(
            opts,
            svc.api(),
            Some(svc.cache()),
            &instances,
            traced,
            &mut m,
            &mut result.notes,
        );
        trace::set_enabled(false);
        append_recorded(&mut phases, &mut result);
    } else {
        end_to_end(&phases.main, setup_s, &mut m, &mut result);
    }
    let model = svc.api().inner();
    result.notes.push(paper_note(&phases.main, model.dim()));
    result
        .notes
        .push(format!("outcomes {}", phases.main.tally.outcome_summary()));
    result.notes.push(format!(
        "peak RSS {setup_rss:.1} MiB after set-up, {:.1} MiB at the end",
        host::rss_peak_mib()
    ));
    for phase in std::iter::once(&mut phases.main).chain(phases.traced.as_mut().map(|t| &mut t.0)) {
        let wrong = gate_replies(&mut phase.tally, model, |i| (hot[i].clone(), class));
        settle(&mut result, &phase.tally, wrong);
    }
    result.metrics = m;
    drop(client);
    if let Err(e) = server.close() {
        result.failures.push(format!("server close: {e}"));
    }
    result
}

fn is_busy(e: &ClientError) -> bool {
    matches!(e, ClientError::Remote(r) if r.code == ErrorCode::Busy)
}

/// `warm-wire-d8` invariants: no solves, exactly one query per request,
/// every reply a cache hit.
fn check_warm_counts(phase: &Phase, result: &mut RunResult) {
    let (before, after) = phase.stats.as_ref().expect("a service phase");
    let solves = after.misses - before.misses;
    let requests = after.requests - before.requests;
    let queries = after.queries - before.queries;
    if solves != 0 || queries != requests {
        result.failures.push(format!(
            "warm phase: {solves} solves and {queries} queries for {requests} requests (want 0 and 1 each)"
        ));
        result.failed += 1;
    }
    let (hits, hit_queries) = phase.tally.outcome(ServeOutcome::CacheHit);
    let served = phase.tally.served_count();
    if hits != served || hit_queries != hits {
        result.failures.push(format!(
            "warm phase: {hits} of {served} replies were cache hits, spending {hit_queries} queries"
        ));
        result.failed += served - hits;
    }
}

fn append_recorded(phases: &mut Phases, result: &mut RunResult) {
    let mut rec = phases
        .traced
        .as_mut()
        .map(|(_, r)| std::mem::take(r))
        .unwrap_or_default();
    let replay = trace::drain();
    rec.spans.extend(replay.spans);
    let mut shares: Vec<String> = rec
        .self_times()
        .into_iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{name}: {count} spans, total {:.1} ms, self {:.1} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            )
        })
        .collect();
    result.notes.append(&mut shares);
    result.recorded = Some(rec);
}

// ---------------------------------------------------------------- cold-solve-d8

fn cold_solve_d8(opts: &Options) -> RunResult {
    let reps = if opts.trace { 1 } else { SHORT_SETUP_REPS };
    let ((api, pool), setup_s) = repeated_setup(reps, |_| {
        let api = TimedApi::new(TwoRegionPlm::reference());
        let pool: Vec<(Vector, usize)> = gen::boundary_instances(opts.seed, COLD_D8_POOL)
            .into_iter()
            .map(|x| {
                let class = api.inner().predict_label(x.as_slice());
                (x, class)
            })
            .collect();
        (api, pool)
    });
    let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
    let next = AtomicUsize::new(0);
    let clients = host::nproc();
    let mut phases = phases(opts, |length, k| {
        let start = Instant::now();
        let phase_ns = trace::now_ns();
        let capacity = (length.as_secs_f64() * D8_MAX_RPS) as usize / clients;
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let mut rng = gen::rng(opts.seed, 20_000 + 16 * k + t as u64);
                    let mut tally = Tally::with_capacity(capacity);
                    let (api, pool, interpreter, next) = (&api, &pool, &interpreter, &next);
                    scope.spawn(move || {
                        let mut prev_end = trace::now_ns();
                        while start.elapsed() < length {
                            // ordering: Relaxed — a ticket counter over a
                            // read-only pool built before the threads.
                            let i = next.fetch_add(1, Ordering::Relaxed) % pool.len();
                            let (x, class) = &pool[i];
                            let send = trace::now_ns();
                            let solved = trace::span("bench.request", || {
                                interpreter.interpret(api, x, *class, &mut rng)
                            });
                            let end = trace::now_ns();
                            let t = Times {
                                phase_ns,
                                due_ns: send,
                                send_ns: send,
                                end_ns: end,
                                lag_ns: send - prev_end,
                            };
                            prev_end = end;
                            match solved {
                                Ok(r) => {
                                    let exact = tally.gate_mut().check_exact(
                                        api.inner(),
                                        x,
                                        *class,
                                        &r.interpretation,
                                        membership_rtol(),
                                    );
                                    if exact {
                                        tally.solved_direct(r.queries, t, trace::enabled());
                                    } else {
                                        tally.failed(
                                            format!("instance {i}: wrong reply"),
                                            false,
                                            t,
                                        );
                                    }
                                }
                                Err(e) => tally.failed(format!("instance {i}: {e}"), false, t),
                            }
                        }
                        tally
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut tally = Tally::default();
        for t in tallies {
            tally.merge(t);
        }
        Phase {
            tally,
            length,
            wall_s,
            stats: None,
            window_steal: Vec::new(),
        }
    });
    let mut result = RunResult::default();
    let mut m = Metrics::new();
    if opts.trace {
        common_layers(opts, &phases, clients, &mut m, &mut result.notes);
        let (traced, _) = phases.traced.as_ref().expect("traced run");
        trace::set_enabled(true);
        core_layers(opts, &api, None, &pool, traced, &mut m, &mut result.notes);
        trace::set_enabled(false);
        append_recorded(&mut phases, &mut result);
    } else {
        end_to_end(&phases.main, setup_s, &mut m, &mut result);
    }
    result
        .notes
        .push(paper_note(&phases.main, TwoRegionPlm::REFERENCE_DIM));
    for phase in std::iter::once(&phases.main).chain(phases.traced.as_ref().map(|t| &t.0)) {
        settle(&mut result, &phase.tally, 0);
    }
    result.metrics = m;
    result
}

// ---------------------------------------------------------------- d = 196 panel

/// The smoke-profile PLNN panel (d = 196, C = 10), leaked so services can
/// borrow it for `'static`.
fn panel_model() -> &'static PanelModel {
    let panel = build_plnn_panel(
        &ExperimentConfig::for_profile(Profile::Smoke),
        SynthStyle::MnistLike,
    );
    &Box::leak(Box::new(panel)).model
}

type PanelApi = TimedApi<&'static PanelModel>;

// ---------------------------------------------------------------- cold-solve-d196

fn cold_solve_d196(opts: &Options) -> RunResult {
    let reps = if opts.trace { 1 } else { COLD_SETUP_REPS };
    let ((model, pool, svc), setup_s) = repeated_setup(reps, |_| {
        let model = panel_model();
        let pool = gen::distinct_region_instances(model, opts.seed, COLD_POOL);
        let svc = InterpretationService::new(TimedApi::new(model), service_config(opts.seed));
        for (x, class) in &pool[..COLD_WARMUP] {
            svc.submit(InterpretRequest::new(x.clone(), *class))
                .wait()
                .expect("warm-up solve");
        }
        (model, pool, svc)
    });
    let setup_rss = host::rss_peak_mib();
    let next = AtomicUsize::new(COLD_WARMUP);
    let clients = host::nproc();
    let mut phases = phases(opts, |length, _| {
        let before = svc.stats();
        let start = Instant::now();
        let phase_ns = trace::now_ns();
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| scope.spawn(|| cold_client(&svc, &pool, &next, start + length, phase_ns)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut tally = Tally::default();
        for t in tallies {
            tally.merge(t);
        }
        Phase {
            tally,
            length,
            wall_s,
            stats: Some((before, svc.stats())),
            window_steal: Vec::new(),
        }
    });
    let mut result = RunResult::default();
    // ordering: Relaxed — read after every client thread was joined.
    let used = next.load(Ordering::Relaxed).min(pool.len());
    if used == pool.len() {
        result
            .notes
            .push("the instance pool ran out before the phase ended".into());
    }
    let mut m = Metrics::new();
    if opts.trace {
        common_layers(opts, &phases, clients, &mut m, &mut result.notes);
        let (traced, _) = phases.traced.as_ref().expect("traced run");
        trace::set_enabled(true);
        store_fabric_layers(
            opts,
            || TimedApi::new(model),
            &traced.tally,
            &mut m,
            &mut result,
        );
        core_layers(
            opts,
            svc.api(),
            Some(svc.cache()),
            &pool[..used],
            traced,
            &mut m,
            &mut result.notes,
        );
        trace::set_enabled(false);
        append_recorded(&mut phases, &mut result);
    } else {
        end_to_end(&phases.main, setup_s, &mut m, &mut result);
    }
    result.notes.push(paper_note(&phases.main, model.dim()));
    result
        .notes
        .push(format!("outcomes {}", phases.main.tally.outcome_summary()));
    result.notes.push(format!(
        "peak RSS {setup_rss:.1} MiB after set-up, {:.1} MiB at the end",
        host::rss_peak_mib()
    ));
    for phase in std::iter::once(&mut phases.main).chain(phases.traced.as_mut().map(|t| &mut t.0)) {
        let wrong = gate_replies(&mut phase.tally, model, |i| pool[i].clone());
        settle(&mut result, &phase.tally, wrong);
    }
    result.metrics = m;
    if let Err(e) = svc.close() {
        result.failures.push(format!("service close: {e}"));
    }
    result
}

/// One closed-loop in-process client: submit → wait on the next unused
/// pool instance until `deadline`.
fn cold_client(
    svc: &InterpretationService<PanelApi>,
    pool: &[(Vector, usize)],
    next: &AtomicUsize,
    deadline: Instant,
    phase_ns: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut prev_end = trace::now_ns();
    while Instant::now() < deadline {
        // ordering: Relaxed — a unique-ticket counter; the pool is
        // read-only and was built before the threads started.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some((x, class)) = pool.get(i) else { break };
        let send = trace::now_ns();
        let result = trace::span("bench.request", || {
            let r = svc.submit(InterpretRequest::new(x.clone(), *class)).wait();
            if let (true, Ok(s)) = (trace::enabled(), &r) {
                let end = trace::now_ns();
                let service_ns = s.latency.as_nanos() as u64;
                trace::record(
                    "serve.service",
                    trace::current_id(),
                    end.saturating_sub(service_ns),
                    end,
                );
            }
            r
        });
        let end = trace::now_ns();
        let t = Times {
            phase_ns,
            due_ns: send,
            send_ns: send,
            end_ns: end,
            lag_ns: send - prev_end,
        };
        match &result {
            Ok(s) => tally.served(i, s.into(), t, trace::enabled()),
            Err(e) => tally.failed(format!("request: {e}"), false, t),
        }
        prev_end = end;
    }
    tally
}

// ---------------------------------------------------------------- mixed-durable-d196

struct Mixed {
    model: &'static PanelModel,
    hot: Vec<(Vector, usize)>,
    fresh: Vec<(Vector, usize)>,
    server: Server<PanelApi>,
    dir: PathBuf,
}

impl Drop for Mixed {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn mixed_setup(opts: &Options, rep: usize) -> Mixed {
    let model = panel_model();
    let mut instances = gen::distinct_region_instances(model, opts.seed, MIXED_HOT + MIXED_FRESH);
    let fresh = instances.split_off(MIXED_HOT);
    let hot = instances;
    let dir = opts.scratch.join(format!("store-{rep}"));
    std::fs::create_dir_all(&dir).expect("store directory is creatable");
    let cfg = service_config(opts.seed);
    let svc = InterpretationService::open(TimedApi::new(model), cfg.clone(), &dir)
        .expect("fresh store opens");
    let tickets: Vec<_> = hot
        .iter()
        .map(|(x, class)| svc.submit(InterpretRequest::new(x.clone(), *class)))
        .collect();
    for t in tickets {
        t.wait().expect("hot-set solve");
    }
    svc.close().expect("store closes cleanly");
    let svc = trace::span("store.reopen", || {
        InterpretationService::open(TimedApi::new(model), cfg, &dir).expect("store reopens")
    });
    let server = Server::bind("127.0.0.1:0", svc, ServerConfig::default()).expect("loopback bind");
    Mixed {
        model,
        hot,
        fresh,
        server,
        dir,
    }
}

fn mixed_durable_d196(opts: &Options) -> RunResult {
    let reps = if opts.trace { 1 } else { MIXED_SETUP_REPS };
    let (fx, setup_s) = repeated_setup(reps, |rep| mixed_setup(opts, rep));
    let setup_rss = host::rss_peak_mib();
    let addr = fx.server.local_addr();
    let svc = fx.server.service();
    let fresh_next = AtomicUsize::new(0);
    let conns = host::nproc() as u64;
    let mut phases = phases(opts, |length, phase_no| {
        let before = svc.stats();
        let start = Instant::now() + Duration::from_millis(20);
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|conn| {
                    let plan = gen::open_loop_plan(
                        opts.seed,
                        phase_no * 64 + conn,
                        MIXED_RATE / conns as f64,
                        length,
                        fx.hot.len(),
                        FRESH_EVERY,
                    );
                    let (fx, fresh_next) = (&fx, &fresh_next);
                    scope.spawn(move || open_loop_client(addr, fx, fresh_next, &plan, start))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64().max(length.as_secs_f64());
        let mut tally = Tally::default();
        for t in tallies {
            tally.merge(t);
        }
        Phase {
            tally,
            length,
            wall_s,
            stats: Some((before, svc.stats())),
            window_steal: Vec::new(),
        }
    });
    let mut result = RunResult::default();
    check_mixed_counts(&phases.main, &mut result);
    if let Some((traced, _)) = phases.traced.as_ref() {
        check_mixed_counts(traced, &mut result);
    }
    let mut m = Metrics::new();
    if opts.trace {
        common_layers(
            opts,
            &phases,
            svc.config().workers,
            &mut m,
            &mut result.notes,
        );
        let (traced, _) = phases.traced.as_ref().expect("traced run");
        trace::set_enabled(true);
        net_layers(addr, traced, traced.tally.gate(), &mut m);
        store_fabric_layers(
            opts,
            || TimedApi::new(fx.model),
            &traced.tally,
            &mut m,
            &mut result,
        );
        let mut instances = fx.hot.clone();
        // ordering: Relaxed — read after every connection thread joined.
        let used = fresh_next.load(Ordering::Relaxed).min(fx.fresh.len());
        instances.extend_from_slice(&fx.fresh[..used]);
        core_layers(
            opts,
            svc.api(),
            Some(svc.cache()),
            &instances,
            traced,
            &mut m,
            &mut result.notes,
        );
        trace::set_enabled(false);
        append_recorded(&mut phases, &mut result);
    } else {
        end_to_end(&phases.main, setup_s, &mut m, &mut result);
    }
    result.notes.push(paper_note(&phases.main, fx.model.dim()));
    result
        .notes
        .push(format!("outcomes {}", phases.main.tally.outcome_summary()));
    result.notes.push(format!(
        "peak RSS {setup_rss:.1} MiB after set-up, {:.1} MiB at the end",
        host::rss_peak_mib()
    ));
    for phase in std::iter::once(&mut phases.main).chain(phases.traced.as_mut().map(|t| &mut t.0)) {
        let wrong = gate_replies(&mut phase.tally, fx.model, |i| mixed_instance(&fx, i));
        settle(&mut result, &phase.tally, wrong);
    }
    result.metrics = m;
    result
}

/// Instance ids: hot `i` is `i`, fresh `j` is `MIXED_HOT + j`.
fn mixed_instance(fx: &Mixed, id: usize) -> (Vector, usize) {
    fx.hot
        .get(id)
        .or_else(|| fx.fresh.get(id - fx.hot.len()))
        .cloned()
        .expect("instance id in range")
}

/// One open-loop connection: sends each arrival at its due time (or as
/// soon after as the previous reply allows) and times it from the due
/// time.
fn open_loop_client(
    addr: SocketAddr,
    fx: &Mixed,
    fresh_next: &AtomicUsize,
    plan: &[gen::Arrival],
    start: Instant,
) -> Tally {
    let mut client = Client::connect(addr).expect("loopback connect");
    let mut tally = Tally::default();
    let start_ns =
        trace::now_ns() + start.saturating_duration_since(Instant::now()).as_nanos() as u64;
    for arrival in plan {
        let due = start + arrival.due;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let id = match arrival.pick {
            Pick::Hot(i) => i,
            // ordering: Relaxed — a unique-ticket counter over a
            // read-only pool.
            Pick::Fresh => match fresh_next.fetch_add(1, Ordering::Relaxed) {
                j if j < fx.fresh.len() => fx.hot.len() + j,
                _ => 0,
            },
        };
        let (x, class) = mixed_instance(fx, id);
        let due_ns = start_ns + arrival.due.as_nanos() as u64;
        let send = trace::now_ns();
        let result = trace::span("bench.request", || {
            let r = client.interpret(&x, class);
            if let (true, Ok(s)) = (trace::enabled(), &r) {
                let end = trace::now_ns();
                let server_ns = s.server_latency.as_nanos() as u64;
                trace::record("serve.service", trace::current_id(), end - server_ns, end);
            }
            r
        });
        let end = trace::now_ns();
        let t = Times {
            phase_ns: start_ns,
            due_ns,
            send_ns: send,
            end_ns: end,
            lag_ns: send.saturating_sub(due_ns),
        };
        match &result {
            Ok(s) => tally.served(id, s.into(), t, trace::enabled()),
            Err(e) => tally.failed(format!("request: {e}"), is_busy(e), t),
        }
    }
    tally
}

/// `mixed-durable-d196` invariant: hot instances never solve after the
/// reopen (their regions come from the store, then the cache).
fn check_mixed_counts(phase: &Phase, result: &mut RunResult) {
    let hot_solves = phase
        .tally
        .solved()
        .iter()
        .filter(|&&(instance, _)| (instance as usize) < MIXED_HOT)
        .count();
    if hot_solves > 0 {
        result
            .failures
            .push(format!("{hot_solves} hot requests solved after the reopen"));
        result.failed += hot_solves as u64;
    }
}

/// `store` and `fabric` metrics, replayed on the regions a run served:
/// each (up to [`STORE_REPLAY`]) is appended to an empty store with a
/// durability barrier after it; the store is closed and reopened; then it
/// is served over the wire and pulled into a fresh store-backed node by
/// one `sync_peer_once`.
fn store_fabric_layers<A: PredictionApi + Send + Sync + 'static>(
    opts: &Options,
    api: impl Fn() -> A,
    tally: &Tally,
    m: &mut Metrics,
    result: &mut RunResult,
) {
    let dir = opts.scratch.join("store-replay");
    let store = match RegionStore::open(&dir, StoreConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            result.failures.push(format!("store replay: {e}"));
            return;
        }
    };
    let (mut append_us, mut flush_ms) = (Vec::new(), Vec::new());
    let regions: BTreeSet<u64> = tally.pairs().keys().map(|&(_, fp)| fp).collect();
    for fp in regions.into_iter().take(STORE_REPLAY) {
        let interpretation = std::sync::Arc::clone(tally.gate().region(fp).expect("observed"));
        let start = Instant::now();
        trace::span("store.append", || {
            store.append(RegionFingerprint(fp), interpretation)
        });
        append_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        if let Err(e) = trace::span("store.flush", || store.flush()) {
            result.failures.push(format!("store replay flush: {e}"));
        }
        flush_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let stats = store.stats();
    m.set("store.appends", stats.appends as f64);
    m.set("store.fsyncs", stats.fsyncs as f64);
    m.set("store.wal_bytes", stats.wal_bytes as f64);
    // Medians, like `store.open_ms`: a run may serve too few regions for
    // the 20-sample floor of a percentile (`warm-wire-d8` serves two).
    m.set("store.append_p50_us", median(&append_us).unwrap_or(0.0));
    m.set("store.flush_p50_ms", median(&flush_ms).unwrap_or(0.0));
    if let Err(e) = store.close() {
        result.failures.push(format!("store replay close: {e}"));
    }
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let opened = trace::span("store.open", || {
            RegionStore::open(&dir, StoreConfig::default())
        });
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match opened.map(|s| s.close()) {
            Ok(Ok(())) => {}
            Ok(Err(e)) | Err(e) => result.failures.push(format!("store replay open: {e}")),
        }
    }
    m.set("store.open_ms", median(&open_ms).unwrap_or(0.0));

    let cfg = service_config(opts.seed);
    let peer = InterpretationService::open(api(), cfg.clone(), &dir)
        .map_err(|e| e.to_string())
        .and_then(|svc| {
            Server::bind("127.0.0.1:0", svc, ServerConfig::default()).map_err(|e| e.to_string())
        });
    let node = InterpretationService::open(api(), cfg, opts.scratch.join("fabric-node"));
    let (peer, node) = match (peer, node) {
        (Ok(peer), Ok(node)) => (peer, node),
        (Err(e), _) => return result.failures.push(format!("fabric peer: {e}")),
        (_, Err(e)) => return result.failures.push(format!("fabric node: {e}")),
    };
    let start = Instant::now();
    let report = trace::span("fabric.sync", || {
        sync_peer_once(
            &node.core(),
            &peer.local_addr().to_string(),
            &FabricConfig::default(),
        )
    });
    m.set("fabric.sync_ms", start.elapsed().as_secs_f64() * 1e3);
    match report {
        Ok(r) => {
            m.set("fabric.pulled_records", r.pulled_records as f64);
            m.set("fabric.pulled_bytes", r.pulled_bytes as f64);
            if !r.converged {
                result.failures.push("fabric sync did not converge".into());
            }
        }
        Err(e) => result.failures.push(format!("fabric sync: {e}")),
    }
    for closed in [node.close(), peer.close()] {
        if let Err(e) = closed {
            result.failures.push(format!("fabric close: {e}"));
        }
    }
}
