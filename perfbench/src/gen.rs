//! Seeded input generation. Every input a workload sends derives from its
//! `--seed` here, so one seed always gives the same bytes; the program
//! under test only ever sees the generated instances.

use openapi_api::{GroundTruthOracle, LocalLinearModel, RegionId, TwoRegionPlm};
use openapi_data::synth::{SynthConfig, SynthStyle, NUM_CLASSES};
use openapi_data::{downsample, Dataset};
use openapi_linalg::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Average-pooling factor from the 28×28 renders to the panel's d = 196.
const POOL: usize = 2;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent generator for `stream` under `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(seed ^ splitmix(stream)))
}

/// An endless seeded sequence of indices into a pool of `pool` instances,
/// drawn uniformly.
pub fn warm_order(seed: u64, pool: usize) -> impl Iterator<Item = usize> {
    let mut rng = rng(seed, 1);
    std::iter::repeat_with(move || rng.gen_range(0..pool))
}

/// The boundary of `TwoRegionPlm::reference()`: `x[1] = 0.25`.
const D8_SPLIT_AXIS: usize = 1;
const D8_SPLIT: f64 = 0.25;

/// `n` instances of `TwoRegionPlm::reference()` (d = 8) alternating
/// between its two regions, each at a seeded distance `2^-u` from the
/// boundary (`u` uniform in `[0, 12)`; the other coordinates uniform in
/// ±0.4). Algorithm 1 halves its cube (half-width 1, ½, …) until it fits
/// inside that distance, so a solve takes `⌊u⌋ + 2` iterations, 2 to 13,
/// as the halving does on the d = 196 panel.
pub fn boundary_instances(seed: u64, n: usize) -> Vec<Vector> {
    let mut rng = rng(seed, 2);
    (0..n)
        .map(|i| {
            let mut x: Vec<f64> = (0..8).map(|_| rng.gen_range(-0.4..0.4)).collect();
            let distance = 2f64.powf(-rng.gen_range(0.0f64..12.0));
            let side = if i % 2 == 0 { -1.0 } else { 1.0 };
            x[D8_SPLIT_AXIS] = D8_SPLIT + side * distance;
            Vector(x)
        })
        .collect()
}

/// Input dimension and classes of [`wide_two_region_model`], as the
/// d = 196 panel.
const WIDE_D: usize = 196;
const WIDE_C: usize = 10;

/// A two-region model of the d = 196 panel's shape (C = 10), split on
/// `x[1] = 0.5`, with weights uniform in ±0.1 from a fixed stream: the
/// same for every `--seed`. Its replies are as large as the panel's
/// (9 contrasts × 197 values), while set-up solves only two regions.
pub fn wide_two_region_model() -> TwoRegionPlm {
    let mut rng = rng(0, 3);
    let mut local = || {
        let w = Matrix::from_fn(WIDE_D, WIDE_C, |_, _| rng.gen_range(-0.1..0.1));
        let b = Vector((0..WIDE_C).map(|_| rng.gen_range(-0.1..0.1)).collect());
        LocalLinearModel::new(w, b)
    };
    let low = local();
    let high = local();
    TwoRegionPlm::axis_split(1, 0.5, low, high)
}

/// `n` instances of [`wide_two_region_model`] alternating between its
/// regions: coordinates uniform in [0, 1], coordinate 1 at 0.1 or 0.9.
pub fn wide_hot_instances(seed: u64, n: usize) -> Vec<Vector> {
    let mut rng = rng(seed, 4);
    (0..n)
        .map(|i| {
            let mut x: Vec<f64> = (0..WIDE_D).map(|_| rng.gen_range(0.0..1.0)).collect();
            x[1] = if i % 2 == 0 { 0.1 } else { 0.9 };
            Vector(x)
        })
        .collect()
}

/// Half-width of the uniform per-coordinate jitter added to each pooled
/// render. The smoke PLNN has only ~1,400 regions near its training
/// data, too few for a run of fresh solves; a ±0.5 jitter (unclamped)
/// makes about two renders in three land in a region of their own.
const JITTER: f64 = 0.5;

/// `n` synthetic MNIST-like instances at the panel's d = 196, each of a
/// seeded random class, jittered by ±[`JITTER`] per coordinate.
pub fn render_instances(seed: u64, stream: u64, n: usize) -> Vec<Vector> {
    let synth = SynthConfig::small(SynthStyle::MnistLike, 1, 1, seed);
    let mut rng = rng(seed, stream);
    let mut instances = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let class = rng.gen_range(0..NUM_CLASSES);
        instances.push(synth.render_instance(class, &mut rng));
        labels.push(class);
    }
    let full = Dataset::new(instances, labels, NUM_CLASSES).expect("rendered instances are valid");
    let mut pooled = downsample(&full, POOL).instances().to_vec();
    for x in &mut pooled {
        for v in x.iter_mut() {
            *v += rng.gen_range(-JITTER..JITTER);
        }
    }
    pooled
}

/// `n` instances from pairwise distinct regions of `model`, each paired
/// with the model's predicted label: a rendered instance whose region was
/// already emitted is dropped, so each one costs a service a fresh solve.
///
/// # Panics
/// When 50·n renders do not yield `n` distinct regions.
pub fn distinct_region_instances<M: GroundTruthOracle>(
    model: &M,
    seed: u64,
    n: usize,
) -> Vec<(Vector, usize)> {
    const CHUNK: usize = 256;
    let mut seen: HashSet<RegionId> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut chunk = 0u64;
    while out.len() < n {
        assert!(
            (chunk as usize) * CHUNK < 50 * n.max(1),
            "only {} distinct regions in {} renders",
            out.len(),
            chunk as usize * CHUNK
        );
        for x in render_instances(seed, 100 + chunk, CHUNK) {
            if out.len() < n && seen.insert(model.region_id(x.as_slice())) {
                let class = model.predict_label(x.as_slice());
                out.push((x, class));
            }
        }
        chunk += 1;
    }
    out
}

/// What an open-loop arrival asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// A repeat of hot instance `i`.
    Hot(usize),
    /// The next unused fresh instance.
    Fresh,
}

/// One open-loop arrival: when it is due (from the start of the timed
/// phase) and what it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time since the phase started.
    pub due: Duration,
    /// The instance it asks for.
    pub pick: Pick,
}

/// A Poisson arrival schedule for connection `conn` at `rate_hz` over
/// `horizon`. Every `fresh_every`-th arrival (at a seeded phase) asks for
/// a fresh instance; the rest pick a hot instance uniformly.
pub fn open_loop_plan(
    seed: u64,
    conn: u64,
    rate_hz: f64,
    horizon: Duration,
    hot: usize,
    fresh_every: usize,
) -> Vec<Arrival> {
    let mut rng = rng(seed, 1000 + conn);
    let phase = rng.gen_range(0..fresh_every);
    let mut plan = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival gap; `1 - u` keeps ln away from 0.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate_hz;
        if t >= horizon.as_secs_f64() {
            return plan;
        }
        let pick = if (plan.len() + phase) % fresh_every == 0 {
            Pick::Fresh
        } else {
            Pick::Hot(rng.gen_range(0..hot))
        };
        plan.push(Arrival {
            due: Duration::from_secs_f64(t),
            pick,
        });
    }
}
