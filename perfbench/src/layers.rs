//! Per-layer measurement from outside the program: the service's own
//! `stats()` histograms and counters (`serve`), and replays of a
//! workload's own inputs through each layer's public functions (`core`,
//! `linalg`). Every replay runs inside bench spans, so a traced run's span
//! file shows the same boundaries.

use crate::gen;
use crate::quantile::Sorted;
use crate::report::Metrics;
use crate::trace;
use openapi_api::PredictionApi;
use openapi_core::equations::{ConsistencySolver, EquationSystem, Probe};
use openapi_core::sampler::sample_many;
use openapi_core::{OpenApiConfig, OpenApiInterpreter};
use openapi_linalg::Vector;
use openapi_metrics::{quantile_from_buckets, LATENCY_BUCKETS};
use openapi_serve::{SharedRegionCache, StageSlot, StatsSnapshot};
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn bucket_delta(
    after: &[u64; LATENCY_BUCKETS],
    before: &[u64; LATENCY_BUCKETS],
) -> [u64; LATENCY_BUCKETS] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// A histogram quantile in ms, 0 when the histogram is empty or (for
/// p99) holds fewer than 1,000 samples.
fn hist_ms(buckets: &[u64; LATENCY_BUCKETS], q: f64) -> f64 {
    let n: u64 = buckets.iter().sum();
    let beyond = (n as f64 * (1.0 - q)).floor() as u64;
    if n == 0 || beyond < crate::quantile::MIN_BEYOND as u64 {
        return 0.0;
    }
    quantile_from_buckets(buckets, q).map_or(0.0, ms)
}

/// The `serve` layer over one phase: the service's own stage histograms
/// and outcome counters between two snapshots.
pub fn serve_metrics(before: &StatsSnapshot, after: &StatsSnapshot, m: &mut Metrics) {
    let stage = |slot: StageSlot| {
        bucket_delta(
            &after.stage_buckets[slot as usize],
            &before.stage_buckets[slot as usize],
        )
    };
    let queue = stage(StageSlot::Queue);
    m.set("serve.queue_p50_ms", hist_ms(&queue, 0.5));
    m.set("serve.queue_p99_ms", hist_ms(&queue, 0.99));
    m.set("serve.probe_p50_ms", hist_ms(&stage(StageSlot::Probe), 0.5));
    m.set("serve.store_p50_ms", hist_ms(&stage(StageSlot::Store), 0.5));
    m.set("serve.solve_p50_ms", hist_ms(&stage(StageSlot::Solve), 0.5));
    m.set("serve.reply_p50_ms", hist_ms(&stage(StageSlot::Reply), 0.5));
    m.set(
        "serve.service_p50_ms",
        hist_ms(
            &bucket_delta(&after.latency_buckets, &before.latency_buckets),
            0.5,
        ),
    );
    let requests = (after.requests - before.requests).max(1) as f64;
    let misses = after.misses - before.misses;
    m.set(
        "serve.hit_ratio",
        (after.hits - before.hits) as f64 / requests,
    );
    m.set(
        "serve.store_hits",
        (after.store_hits - before.store_hits) as f64,
    );
    m.set("serve.misses", misses as f64);
    m.set(
        "serve.coalesced_served",
        (after.coalesced_served - before.coalesced_served) as f64,
    );
    let new_regions = after.cached_regions.saturating_sub(before.cached_regions);
    m.set(
        "serve.solve_yield",
        if misses == 0 {
            0.0
        } else {
            new_regions as f64 / misses as f64
        },
    );
    m.set("core.cached_regions", after.cached_regions as f64);
}

/// Algorithm 1 replayed through [`OpenApiInterpreter::interpret`].
#[derive(Debug, Default)]
pub struct SolveReplay {
    /// Wall time per solve, ms.
    pub solve_ms: Vec<f64>,
    /// Prediction queries per solve.
    pub queries: Vec<usize>,
}

/// Replays `solves` Algorithm-1 solves of `instances` (cycled) on
/// `threads` threads, each solve in a `core.solve` span.
pub fn replay_solves<M: PredictionApi + Sync>(
    api: &M,
    instances: &[(Vector, usize)],
    solves: usize,
    threads: usize,
    seed: u64,
) -> SolveReplay {
    let interpreter = OpenApiInterpreter::new(OpenApiConfig::default());
    let parts: Vec<SolveReplay> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let interpreter = &interpreter;
                scope.spawn(move || {
                    let mut out = SolveReplay::default();
                    for k in (t..solves).step_by(threads.max(1)) {
                        let (x, class) = &instances[k % instances.len()];
                        let mut rng = gen::rng(seed, 5000 + k as u64);
                        let start = Instant::now();
                        let result = trace::span("core.solve", || {
                            interpreter.interpret(api, x, *class, &mut rng)
                        });
                        let elapsed = start.elapsed();
                        if let Ok(r) = result {
                            out.solve_ms.push(ms(elapsed));
                            out.queries.push(r.queries);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = SolveReplay::default();
    for p in parts {
        all.solve_ms.extend(p.solve_ms);
        all.queries.extend(p.queries);
    }
    all
}

/// Sets the `core.solve_*`, iteration and useful-query metrics from a
/// replay at input dimension `d`.
pub fn solve_metrics(replay: &SolveReplay, d: usize, m: &mut Metrics) {
    let solve = Sorted::new(replay.solve_ms.clone());
    m.set("core.solve_p50_ms", solve.percentile_or_zero(0.5));
    m.set("core.solve_p99_ms", solve.percentile_or_zero(0.99));
    let queries: usize = replay.queries.iter().sum();
    let (iterations, useful) = paper_model(replay.queries.len() as u64, queries as u64, d);
    m.set("core.iterations_mean", iterations);
    m.set("core.useful_query_share", useful);
}

/// The paper's query model beside the measured spend: a solve of `T`
/// hypercube iterations costs `1 + T·(d+1)` queries, of which the `d + 2`
/// of the final, consistent system are the useful ones. Returns (mean
/// `T`, `(d+2)` ÷ mean queries per solve) over `solves` solves that spent
/// `queries` in all; (0, 0) without solves.
pub fn paper_model(solves: u64, queries: u64, d: usize) -> (f64, f64) {
    if solves == 0 {
        return (0.0, 0.0);
    }
    let mean_q = queries as f64 / solves as f64;
    ((mean_q - 1.0) / (d + 1) as f64, (d + 2) as f64 / mean_q)
}

/// One Algorithm-1 iteration's algebra, replayed step by step.
#[derive(Debug, Default)]
pub struct AlgebraReplay {
    /// `EquationSystem::new`, µs.
    pub assemble_us: Vec<f64>,
    /// `ConsistencySolver::new` (the factorisation), µs.
    pub factor_us: Vec<f64>,
    /// One `ConsistencySolver::check` (one contrast), µs.
    pub check_us: Vec<f64>,
}

/// Replays `systems` single iterations of Algorithm 1 over `instances`
/// (cycled): sample `d + 1` points at one of the radii the halving visits,
/// query them, then assemble, factor and check every contrast, each step
/// in its own span under a `core.iteration` span.
pub fn replay_algebra<M: PredictionApi>(
    api: &M,
    instances: &[(Vector, usize)],
    systems: usize,
    seed: u64,
) -> AlgebraReplay {
    let config = OpenApiConfig::default();
    let d = api.dim();
    let mut out = AlgebraReplay::default();
    for k in 0..systems {
        let (x0, class) = &instances[k % instances.len()];
        let mut rng = gen::rng(seed, 9000 + k as u64);
        let edge = config.initial_edge * config.shrink_factor.powi((k % 16) as i32);
        trace::span("core.iteration", || {
            let mut probes = vec![Probe::query(api, x0.clone())];
            for x in sample_many(x0.as_slice(), edge, d + 1, &mut rng) {
                probes.push(Probe::query(api, x));
            }
            let start = Instant::now();
            let system = trace::span("core.assemble", || EquationSystem::new(probes));
            out.assemble_us.push(us(start.elapsed()));
            let start = Instant::now();
            let solver = trace::span("linalg.factor", || {
                ConsistencySolver::new(&system, config.strategy, config.rtol)
            });
            out.factor_us.push(us(start.elapsed()));
            let Ok(solver) = solver else { return };
            for c_prime in (0..api.num_classes()).filter(|c| c != class) {
                let rhs = system.rhs(*class, c_prime);
                let start = Instant::now();
                let verdict = trace::span("linalg.check", || solver.check(&rhs, c_prime));
                out.check_us.push(us(start.elapsed()));
                std::hint::black_box(verdict.ok());
            }
        });
    }
    out
}

/// Sets the assemble/factor/check metrics from a replay.
pub fn algebra_metrics(replay: &AlgebraReplay, m: &mut Metrics) {
    let p50 = |v: &[f64]| Sorted::new(v.to_vec()).percentile_or_zero(0.5);
    m.set("core.assemble_p50_us", p50(&replay.assemble_us));
    m.set("linalg.factor_p50_us", p50(&replay.factor_us));
    m.set("linalg.check_p50_us", p50(&replay.check_us));
}

/// Replays `lookups` membership lookups of `instances` (cycled) against a
/// live service's cache, each in a `core.cache_lookup` span; returns the
/// per-lookup times in µs. The probe's prediction is taken outside the
/// timer, so this is the kernel scan alone.
pub fn replay_lookups<M: PredictionApi>(
    cache: &SharedRegionCache,
    api: &M,
    instances: &[(Vector, usize)],
    lookups: usize,
) -> Vec<f64> {
    let probs: Vec<Vector> = instances
        .iter()
        .map(|(x, _)| api.predict(x.as_slice()))
        .collect();
    (0..lookups)
        .map(|k| {
            let i = k % instances.len();
            let (x, class) = &instances[i];
            let start = Instant::now();
            let hit = trace::span("core.cache_lookup", || {
                cache.lookup_probe(x, probs[i].as_slice(), *class)
            });
            let elapsed = start.elapsed();
            std::hint::black_box(hit);
            us(elapsed)
        })
        .collect()
}
