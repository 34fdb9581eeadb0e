//! Region-deduplicating batch interpretation.
//!
//! Theorem 2 of the paper is a *caching theorem* in disguise: every instance
//! inside one locally linear region recovers the **identical** core
//! parameters `(D_{c,c'}, B_{c,c'})` — interpretation is a per-region
//! computation, not a per-instance one (the insight OpenBox, arXiv:1802.06259,
//! exploits with white-box access). [`BatchInterpreter`] carries that insight
//! into the black-box setting: it interprets a slice of instances for a
//! class, runs the full `d + 1`-query Algorithm 1 only on the **first**
//! instance of each region, and serves every later instance of that region
//! from cache.
//!
//! Cache soundness rests on Theorem 2 both ways:
//!
//! * **Lookup** ([`BatchInterpreter::interpret_batch`]): one prediction
//!   query per instance suffices to decide membership — if a cached region's
//!   parameters satisfy `D_{c,c'}ᵀx + B_{c,c'} = ln(y_c/y_{c'})` for every
//!   contrast ([`Interpretation::explains_probe`]), then `x` lies in that
//!   region (exactly, at zero tolerance) and the cached interpretation is
//!   `x`'s interpretation. The check runs at the finite
//!   [`BatchConfig::membership_rtol`], so an instance within roughly that
//!   tolerance of a boundary can match the *adjacent* region — a PLM is
//!   continuous across boundaries, so the served parameters still explain
//!   `x`'s observable behaviour to the same tolerance Algorithm 1 itself
//!   accepts solutions at (its consistency check admits borderline sample
//!   sets the same way). A hit costs 1 query instead of
//!   `1 + iterations · (d+1)`.
//! * **Key** ([`crate::decision::region_fingerprint`]): recovered parameters
//!   are canonicalized and hashed, so two misses that independently solved
//!   the same region (e.g. a borderline membership tolerance) merge into one
//!   entry and all their callers receive bit-identical interpretations.
//!
//! For white-box *test* models, [`BatchInterpreter::interpret_batch_oracle`]
//! keys the cache on [`GroundTruthOracle::region_id`] instead — hits then
//! issue **zero** prediction queries, the lower bound a production service
//! colocated with its model could reach. The oracle variant exists for
//! evaluation and tests; the black-box variant is the deployable one.
//!
//! The cache itself lives in [`crate::cache::RegionCache`] — the sharded
//! concurrent tier in `openapi-serve` wraps the same structure, so both
//! share one membership-probe code path. The batch layer is a plain loop
//! over it, one instance at a time in input order: probe, lookup, and on a
//! miss Algorithm 1 from that probe, then admit — so every instance sees
//! the regions solved before it. [`BatchStats`] exposes the hit/miss/query
//! accounting a capacity planner needs.

use crate::cache::{CachedRegion, RegionCache, RegionCacheConfig};
use crate::decision::{Interpretation, RegionFingerprint};
use crate::equations::Probe;
use crate::error::InterpretError;
use crate::openapi::{
    queries_consumed, validate_class, validate_request, OpenApiConfig, OpenApiInterpreter,
};
use openapi_api::{GroundTruthOracle, PredictionApi, RegionId};
use openapi_linalg::Vector;
use rand::Rng;
use std::sync::Arc;

/// Batch-layer hyperparameters.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Configuration of the underlying per-region Algorithm 1 runs.
    pub openapi: OpenApiConfig,
    /// Relative tolerance of the cached-region membership test. Defaults to
    /// `1e-6`, matching [`OpenApiConfig::rtol`]'s default — membership and
    /// consistency judge the same identity, so keep them aligned when
    /// customizing either.
    pub membership_rtol: f64,
    /// Decimal places used to canonicalize recovered core parameters into a
    /// [`RegionFingerprint`] (default 6). See
    /// [`crate::decision::region_fingerprint`].
    pub fingerprint_digits: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        let openapi = OpenApiConfig::default();
        BatchConfig {
            membership_rtol: openapi.rtol,
            fingerprint_digits: 6,
            openapi,
        }
    }
}

/// Hit/miss/query accounting for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Instances submitted.
    pub instances: usize,
    /// Instances served from cache.
    pub hits: usize,
    /// Instances that ran the full Algorithm 1.
    pub misses: usize,
    /// Instances whose interpretation failed (budget exhaustion etc.).
    pub failures: usize,
    /// Prediction queries issued to the API.
    pub queries: usize,
    /// Distinct cached regions for the batch's class after processing.
    pub regions: usize,
}

/// One instance's result within a batch.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The interpretation — bit-identical across every instance of a region
    /// (shared out of the cache slot; a hit clones an [`Arc`], not the
    /// parameter payload).
    pub interpretation: Arc<Interpretation>,
    /// Canonical key of the region that produced it.
    pub fingerprint: RegionFingerprint,
    /// Whether the result came from cache.
    pub cache_hit: bool,
    /// Prediction queries spent on this instance (hits: 1 on the black-box
    /// path, 0 on the oracle path).
    pub queries: usize,
}

/// A processed batch: per-instance results plus the batch's statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per input instance, in input order.
    pub results: Vec<Result<BatchItem, InterpretError>>,
    /// Accounting for this batch only.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// The successful interpretations, in input order (failures skipped).
    pub fn interpretations(&self) -> impl Iterator<Item = &Interpretation> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|item| item.interpretation.as_ref())
    }
}

/// The region-deduplicating batch interpreter (see the module docs).
///
/// A thin loop over [`RegionCache`] and [`OpenApiInterpreter`]: this type
/// owns the *batch* concerns (per-instance probing, query accounting,
/// statistics), while membership lookup, fingerprint merging, and the
/// collision fallback live in the cache — the same code path the sharded
/// concurrent cache in `openapi-serve` builds on.
///
/// The cache persists across [`BatchInterpreter::interpret_batch`] calls, so
/// a long-lived instance keeps getting cheaper as traffic covers more of the
/// model's region structure.
#[derive(Debug)]
pub struct BatchInterpreter {
    interpreter: OpenApiInterpreter,
    cache: RegionCache,
}

impl Default for BatchInterpreter {
    fn default() -> Self {
        BatchInterpreter::new(BatchConfig::default())
    }
}

impl BatchInterpreter {
    /// Creates a batch interpreter with the given configuration.
    pub fn new(config: BatchConfig) -> Self {
        let cache = RegionCache::new(RegionCacheConfig {
            membership_rtol: config.membership_rtol,
            fingerprint_digits: config.fingerprint_digits,
            ..RegionCacheConfig::default()
        });
        BatchInterpreter {
            interpreter: OpenApiInterpreter::new(config.openapi),
            cache,
        }
    }

    /// Number of distinct regions currently cached (all classes).
    pub fn cached_regions(&self) -> usize {
        self.cache.len()
    }

    /// Interprets `instances` for `class` against a black-box API,
    /// deduplicating by region.
    ///
    /// Each instance, in input order, costs one membership probe
    /// ([`RegionCache::lookup_probe`]); cache hits stop there (1 query
    /// instead of Algorithm 1's `1 + iterations · (d+1)`), misses reuse the
    /// probe as Algorithm 1's `x⁰` equation so nothing is queried twice,
    /// and admit the solved region before the next instance is looked up.
    /// Per-instance failures land as `Err` entries without aborting the
    /// batch.
    pub fn interpret_batch<M: PredictionApi, R: Rng>(
        &mut self,
        api: &M,
        instances: &[Vector],
        class: usize,
        rng: &mut R,
    ) -> BatchOutcome {
        self.run(api, instances, class, |this, x, stats| {
            this.interpret_one(api, x, class, rng, stats)
        })
    }

    /// [`BatchInterpreter::interpret_batch`] with the oracle fast path:
    /// cache lookups key on [`GroundTruthOracle::region_id`], so hits issue
    /// **zero** prediction queries. Evaluation/test use only — a deployed
    /// interpreter has no oracle (the black-box path exists for that).
    pub fn interpret_batch_oracle<M: GroundTruthOracle, R: Rng>(
        &mut self,
        api: &M,
        instances: &[Vector],
        class: usize,
        rng: &mut R,
    ) -> BatchOutcome {
        self.run(api, instances, class, |this, x, stats| {
            this.interpret_one_oracle(api, x, class, rng, stats)
        })
    }

    /// The loop both entry points share: a bad class fails every instance
    /// identically without spending a single query; otherwise `one` runs
    /// per instance, in input order.
    fn run<M: PredictionApi>(
        &mut self,
        api: &M,
        instances: &[Vector],
        class: usize,
        mut one: impl FnMut(&mut Self, &Vector, &mut BatchStats) -> Result<BatchItem, InterpretError>,
    ) -> BatchOutcome {
        let mut stats = new_stats(instances.len());
        if let Err(e) = validate_class(api.num_classes(), class) {
            stats.failures = instances.len();
            let results = instances.iter().map(|_| Err(e.clone())).collect();
            return BatchOutcome { results, stats };
        }
        let results: Vec<_> = instances.iter().map(|x| one(self, x, &mut stats)).collect();
        stats.failures = results.iter().filter(|r| r.is_err()).count();
        stats.regions = self.cache.class_len(class);
        BatchOutcome { results, stats }
    }

    /// Black-box path: one probe decides membership; a miss solves from it.
    fn interpret_one<M: PredictionApi, R: Rng>(
        &mut self,
        api: &M,
        x: &Vector,
        class: usize,
        rng: &mut R,
        stats: &mut BatchStats,
    ) -> Result<BatchItem, InterpretError> {
        validate_request(api.dim(), api.num_classes(), x, class)?;
        let probe = Probe::query(api, x.clone());
        stats.queries += 1;
        if let Some(hit) = self.cache.lookup_probe(x, probe.probs.as_slice(), class) {
            stats.hits += 1;
            return Ok(item(hit, true, 1));
        }
        let solved = self
            .interpreter
            .interpret_with_probe(api, probe, class, rng)
            .inspect_err(|e| stats.queries += queries_consumed(e, api.dim()))?;
        // `solved.queries` counts the membership probe (as Algorithm 1's x⁰
        // query); it was tallied above, so only the sampling rounds add.
        stats.queries += solved.queries - 1;
        stats.misses += 1;
        Ok(self.admit(solved.interpretation, None, solved.queries))
    }

    /// Oracle path: region id decides membership; hits cost zero queries.
    fn interpret_one_oracle<M: GroundTruthOracle, R: Rng>(
        &mut self,
        api: &M,
        x: &Vector,
        class: usize,
        rng: &mut R,
        stats: &mut BatchStats,
    ) -> Result<BatchItem, InterpretError> {
        validate_request(api.dim(), api.num_classes(), x, class)?;
        let region = api.region_id(x.as_slice());
        if let Some(hit) = self.cache.lookup_region(class, &region) {
            stats.hits += 1;
            return Ok(item(hit, true, 0));
        }
        let solved = self
            .interpreter
            .interpret(api, x, class, rng)
            .inspect_err(|e| {
                stats.queries += 1 + queries_consumed(e, api.dim());
            })?;
        stats.queries += solved.queries;
        stats.misses += 1;
        Ok(self.admit(solved.interpretation, Some(region), solved.queries))
    }

    /// Admits a freshly solved region into the cache (see
    /// [`RegionCache::insert`] for the merge/collision semantics) and builds
    /// the miss's [`BatchItem`] from the entry that ends up cached.
    fn admit(
        &mut self,
        interpretation: Interpretation,
        region: Option<RegionId>,
        queries: usize,
    ) -> BatchItem {
        let cached = self.cache.insert(Arc::new(interpretation), region);
        item(cached, false, queries)
    }
}

fn new_stats(instances: usize) -> BatchStats {
    BatchStats {
        instances,
        ..BatchStats::default()
    }
}

/// The [`BatchItem`] serving a cache entry.
fn item(entry: CachedRegion, cache_hit: bool, queries: usize) -> BatchItem {
    BatchItem {
        interpretation: entry.interpretation,
        fingerprint: entry.fingerprint,
        cache_hit,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{CountingApi, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm};
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_region_model() -> TwoRegionPlm {
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 0.5]]).unwrap(),
            Vector(vec![0.0, 0.2]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[-1.0, 1.5], &[0.0, 3.0]]).unwrap(),
            Vector(vec![0.5, -0.5]),
        );
        TwoRegionPlm::axis_split(0, 0.5, low, high)
    }

    /// A single-region model with a larger `d`, so the per-instance query
    /// cost (`≥ d + 2`) towers over the batch's 1-query hits.
    fn wide_linear_model(d: usize) -> LinearSoftmaxModel {
        let w = Matrix::from_fn(d, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.1 - 0.3);
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.05]))
    }

    fn clustered_instances(n: usize) -> Vec<Vector> {
        // Alternate between the two regions of `two_region_model`.
        (0..n)
            .map(|i| {
                let side = if i % 2 == 0 { 0.2 } else { 0.8 };
                Vector(vec![side, (i as f64 * 0.37).sin() * 0.4])
            })
            .collect()
    }

    #[test]
    fn batch_dedupes_to_one_solve_per_region() {
        let api = two_region_model();
        let instances = clustered_instances(20);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(1);
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        assert_eq!(out.stats.instances, 20);
        assert_eq!(out.stats.failures, 0);
        assert_eq!(out.stats.misses, 2, "one solve per region");
        assert_eq!(out.stats.hits, 18);
        assert_eq!(out.stats.regions, 2);
        assert_eq!(batch.cached_regions(), 2);
    }

    #[test]
    fn hits_are_bit_identical_within_a_region_and_exact() {
        let api = two_region_model();
        let instances = clustered_instances(10);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(2);
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        let items: Vec<&BatchItem> = out.results.iter().map(|r| r.as_ref().unwrap()).collect();
        for item in &items {
            // Same fingerprint ⇒ the very same Interpretation, bitwise.
            let rep = items
                .iter()
                .find(|o| o.fingerprint == item.fingerprint)
                .unwrap();
            assert_eq!(rep.interpretation, item.interpretation);
        }
        // And the cached answer is the region's exact ground truth.
        for (x, item) in instances.iter().zip(&items) {
            let truth = api.local_model(x.as_slice()).decision_features(0);
            let err = item.interpretation.decision_features.l1_distance(&truth);
            assert!(err.unwrap() < 1e-7);
        }
    }

    #[test]
    fn black_box_hits_cost_one_query_each() {
        let d = 16;
        let api = CountingApi::new(wide_linear_model(d));
        let instances: Vec<Vector> = (0..50)
            .map(|i| Vector((0..d).map(|j| ((i * d + j) as f64 * 0.11).cos()).collect()))
            .collect();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(3);
        let out = batch.interpret_batch(&api, &instances, 1, &mut rng);
        assert_eq!(out.stats.misses, 1, "single region: one solve");
        assert_eq!(out.stats.hits, 49);
        // Stats agree with the metered truth.
        assert_eq!(out.stats.queries as u64, api.queries());
        // 49 hits × 1 probe + one full Algorithm 1 run.
        let miss_cost = out.results[0].as_ref().unwrap().queries;
        assert_eq!(out.stats.queries, 49 + miss_cost);
        // ≥ 5× fewer queries than 50 per-instance runs (each ≥ miss_cost).
        assert!(out.stats.queries * 5 <= 50 * miss_cost);
    }

    #[test]
    fn oracle_hits_issue_zero_queries() {
        let api = CountingApi::new(two_region_model());
        let instances = clustered_instances(12);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(4);
        // Warm the cache: first batch pays two solves.
        let warm = batch.interpret_batch_oracle(&api, &instances, 0, &mut rng);
        assert_eq!(warm.stats.misses, 2);
        let after_warm = api.queries();
        // Second batch over the same regions: all hits, zero queries.
        let hot = batch.interpret_batch_oracle(&api, &instances, 0, &mut rng);
        assert_eq!(hot.stats.hits, 12);
        assert_eq!(hot.stats.misses, 0);
        assert_eq!(hot.stats.queries, 0);
        assert_eq!(api.queries(), after_warm, "cache hits must not query");
        for r in &hot.results {
            let item = r.as_ref().unwrap();
            assert!(item.cache_hit);
            assert_eq!(item.queries, 0);
        }
    }

    #[test]
    fn cache_hit_returns_bit_identical_interpretation_to_the_cold_run() {
        // The paper's consistency property as a unit test: the cached entry
        // a hit serves IS the cold run's Interpretation, bit for bit.
        let api = two_region_model();
        let a = Vector(vec![0.1, 0.7]);
        let b = Vector(vec![0.3, -0.4]); // same region as `a`
        let cold = OpenApiInterpreter::default()
            .interpret(&api, &a, 0, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let mut batch = BatchInterpreter::default();
        let out = batch.interpret_batch(&api, &[a, b], 0, &mut StdRng::seed_from_u64(5));
        let first = out.results[0].as_ref().unwrap();
        let second = out.results[1].as_ref().unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(*first.interpretation, cold.interpretation);
        assert_eq!(*second.interpretation, cold.interpretation);
    }

    #[test]
    fn cache_persists_across_batches() {
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(6);
        let first = batch.interpret_batch(&api, &clustered_instances(4), 0, &mut rng);
        assert_eq!(first.stats.misses, 2);
        let second = batch.interpret_batch(&api, &clustered_instances(4), 0, &mut rng);
        assert_eq!(second.stats.misses, 0, "warm cache serves everything");
    }

    #[test]
    fn classes_do_not_share_cache_entries() {
        let api = two_region_model();
        let instances = clustered_instances(6);
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(7);
        let c0 = batch.interpret_batch(&api, &instances, 0, &mut rng);
        let c1 = batch.interpret_batch(&api, &instances, 1, &mut rng);
        assert_eq!(c0.stats.misses, 2);
        assert_eq!(c1.stats.misses, 2, "class 1 must not reuse class 0");
        assert_eq!(c0.stats.regions, 2);
        assert_eq!(c1.stats.regions, 2);
        assert_eq!(batch.cached_regions(), 4);
        for r in c1.results.iter().take(1) {
            assert_eq!(r.as_ref().unwrap().interpretation.class, 1);
        }
    }

    #[test]
    fn fingerprint_collisions_do_not_serve_the_wrong_region() {
        // Two regions whose core parameters all quantize to the same cell at
        // integer granularity: with fingerprint_digits = 0 their fingerprints
        // collide, and the cache must keep both rather than silently serving
        // the first region's parameters for the second.
        let low = LocalLinearModel::new(
            Matrix::from_rows(&[&[0.2, 0.0], &[0.1, 0.0]]).unwrap(),
            Vector(vec![0.0, 0.0]),
        );
        let high = LocalLinearModel::new(
            Matrix::from_rows(&[&[0.0, 0.3], &[0.0, 0.1]]).unwrap(),
            Vector(vec![0.2, 0.0]),
        );
        let api = TwoRegionPlm::axis_split(0, 0.5, low, high);
        let cfg = BatchConfig {
            fingerprint_digits: 0,
            ..BatchConfig::default()
        };
        let mut batch = BatchInterpreter::new(cfg);
        let mut rng = StdRng::seed_from_u64(10);
        let instances = [
            Vector(vec![0.1, 0.3]),  // low region
            Vector(vec![0.9, -0.2]), // high region — colliding fingerprint
            Vector(vec![0.8, 0.4]),  // high region again — must hit entry 2
        ];
        let out = batch.interpret_batch(&api, &instances, 0, &mut rng);
        let items: Vec<&BatchItem> = out.results.iter().map(|r| r.as_ref().unwrap()).collect();
        assert_eq!(items[0].fingerprint, items[1].fingerprint, "collision");
        assert_ne!(items[0].interpretation, items[1].interpretation);
        assert_eq!(out.stats.misses, 2);
        assert_eq!(out.stats.hits, 1);
        assert!(items[2].cache_hit, "un-indexed entry still serves hits");
        assert_eq!(items[2].interpretation, items[1].interpretation);
        for (x, item) in instances.iter().zip(&items) {
            let truth = api.local_model(x.as_slice()).decision_features(0);
            let err = item
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "served the wrong region: L1Dist {err}");
        }
    }

    #[test]
    fn per_instance_failures_do_not_abort_the_batch() {
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(8);
        let bad = Vector(vec![0.0; 5]); // wrong dimension
        let good = Vector(vec![0.2, 0.1]);
        let out = batch.interpret_batch(&api, &[bad, good], 0, &mut rng);
        assert!(matches!(
            out.results[0],
            Err(InterpretError::DimensionMismatch { .. })
        ));
        assert!(out.results[1].is_ok());
        assert_eq!(out.stats.failures, 1);
        assert_eq!(out.interpretations().count(), 1);
    }

    #[test]
    fn budget_exhaustion_is_charged_alike_on_both_paths() {
        // From a point on the split, one sampling round succeeds only if
        // all d + 1 samples land on its side (2^-(d+1) at d = 8), so every
        // instance fails after `1 + (d + 1)` queries; both paths must bill
        // exactly what the metered API saw.
        let d = 8;
        let side = |shift: f64| {
            LocalLinearModel::new(
                Matrix::from_fn(d, 3, |r, c| ((r * 3 + c) % 5) as f64 * 0.3 - shift),
                Vector(vec![0.1, -0.2, shift]),
            )
        };
        let model = TwoRegionPlm::axis_split(0, 0.5, side(0.4), side(-0.7));
        let instances: Vec<Vector> = (0..6)
            .map(|i| {
                let offset = if i % 2 == 0 { -1e-9 } else { 1e-9 };
                let mut x: Vec<f64> = (0..d).map(|j| ((i * d + j) as f64).sin() * 0.4).collect();
                x[0] = 0.5 + offset;
                Vector(x)
            })
            .collect();
        let cfg = BatchConfig {
            openapi: OpenApiConfig {
                max_iterations: 1,
                ..OpenApiConfig::default()
            },
            ..BatchConfig::default()
        };
        for oracle in [false, true] {
            let api = CountingApi::new(model.clone());
            let mut batch = BatchInterpreter::new(cfg.clone());
            let mut rng = StdRng::seed_from_u64(11);
            let out = if oracle {
                batch.interpret_batch_oracle(&api, &instances, 0, &mut rng)
            } else {
                batch.interpret_batch(&api, &instances, 0, &mut rng)
            };
            assert_eq!(out.stats.failures, instances.len(), "oracle: {oracle}");
            assert!(out.results.iter().all(|r| matches!(
                r,
                Err(InterpretError::BudgetExhausted { iterations: 1, .. })
            )));
            assert_eq!(out.stats.queries as u64, api.queries(), "oracle: {oracle}");
            assert_eq!(out.stats.queries, instances.len() * (1 + api.dim() + 1));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let api = two_region_model();
        let mut batch = BatchInterpreter::default();
        let mut rng = StdRng::seed_from_u64(9);
        let out = batch.interpret_batch(&api, &[], 0, &mut rng);
        assert!(out.results.is_empty());
        assert_eq!(out.stats, new_stats(0));
    }
}
