//! OpenAPI — Algorithm 1 of the paper.
//!
//! For an instance `x⁰` and class `c`, OpenAPI samples `d + 1` perturbed
//! instances in a hypercube around `x⁰`, builds the overdetermined system
//! `Ω_{d+2}` for every contrast class `c'`, and accepts the solutions only
//! if **every** contrast's system is consistent (Theorem 2: a consistent
//! `Ω_{d+2}` has a unique solution equal to the true core parameters with
//! probability 1). Otherwise the hypercube edge is halved and the sampling
//! repeats — adaptively shrinking until the cube fits inside `x⁰`'s locally
//! linear region, with no knowledge of where that region's boundaries lie.

use crate::decision::Interpretation;
use crate::equations::{ConsistencySolver, EquationSystem, Probe};
use crate::error::InterpretError;
use crate::sampler::sample_many;
use openapi_api::PredictionApi;
use openapi_linalg::solve::ConsistencyStrategy;
use openapi_linalg::{LinalgError, Vector};
use rand::Rng;

/// Algorithm 1 hyperparameters (defaults follow the paper's experiments).
#[derive(Debug, Clone)]
pub struct OpenApiConfig {
    /// Maximum sampling iterations `m` (paper: 100; observed ≤ 20).
    pub max_iterations: usize,
    /// Initial hypercube edge `r` (paper: 1.0 — "the initial value of r has
    /// little influence" because of the adaptive halving).
    pub initial_edge: f64,
    /// Multiplicative edge shrink per failed iteration (paper: ½). Exposed
    /// for the hypercube-policy ablation.
    pub shrink_factor: f64,
    /// Relative residual tolerance of the consistency check.
    pub rtol: f64,
    /// Which consistency check to run (see the solver ablation).
    pub strategy: ConsistencyStrategy,
}

impl Default for OpenApiConfig {
    fn default() -> Self {
        OpenApiConfig {
            max_iterations: 100,
            initial_edge: 1.0,
            shrink_factor: 0.5,
            rtol: 1e-6,
            strategy: ConsistencyStrategy::SquareThenCheck,
        }
    }
}

/// One iteration's diagnostics.
#[derive(Debug, Clone)]
pub struct IterationLog {
    /// Hypercube edge used this iteration.
    pub edge: f64,
    /// Contrasts whose systems were consistent. Contrasts are checked in
    /// ascending `c'` order and the iteration aborts at the first
    /// inconsistent one, so on a failed iteration this counts the
    /// consistent prefix actually checked.
    pub consistent_contrasts: usize,
    /// Total contrasts required (`C − 1`).
    pub required_contrasts: usize,
    /// Worst residual over the checked contrasts (∞ when factorization
    /// failed). On a failed iteration the last checked contrast is the
    /// inconsistent one that doomed it; contrasts after it are never
    /// solved, so their residuals cannot dilute this figure.
    pub worst_residual: f64,
    /// Whether the sampled geometry degenerated (singular/rank-deficient).
    pub degenerate: bool,
}

/// Successful OpenAPI output with full diagnostics.
#[derive(Debug, Clone)]
pub struct OpenApiResult {
    /// The recovered interpretation (exact with probability 1).
    pub interpretation: Interpretation,
    /// Iterations consumed (1 = first sample succeeded).
    pub iterations: usize,
    /// Hypercube edge of the successful iteration.
    pub final_edge: f64,
    /// Prediction queries issued (`1 + iterations · (d+1)`).
    pub queries: usize,
    /// Per-iteration log (length = `iterations`).
    pub log: Vec<IterationLog>,
    /// The `d + 1` sampled instances of the successful iteration (the set
    /// whose quality the paper's RD/WD experiments measure).
    pub samples: Vec<Vector>,
}

/// The one argument check every entry point runs before spending a query:
/// `x` must have the model's dimension `dim`, and `class` must name one of
/// its `num_classes ≥ 2` classes. A metered API must not be billed for a
/// call its arguments doom, so callers validate before the `x⁰` probe.
///
/// # Errors
/// [`InterpretError::DimensionMismatch`], then
/// [`InterpretError::TooFewClasses`] / [`InterpretError::ClassOutOfRange`].
pub fn validate_request(
    dim: usize,
    num_classes: usize,
    x: &Vector,
    class: usize,
) -> Result<(), InterpretError> {
    if x.len() != dim {
        return Err(InterpretError::DimensionMismatch {
            expected: dim,
            found: x.len(),
        });
    }
    validate_class(num_classes, class)
}

/// The class half of [`validate_request`]: a usable class needs `C ≥ 2`
/// and `class < C`. The batch layer runs it once per batch.
pub(crate) fn validate_class(c_total: usize, class: usize) -> Result<(), InterpretError> {
    if c_total < 2 {
        return Err(InterpretError::TooFewClasses {
            num_classes: c_total,
        });
    }
    if class >= c_total {
        return Err(InterpretError::ClassOutOfRange {
            class,
            num_classes: c_total,
        });
    }
    Ok(())
}

/// The OpenAPI interpreter.
#[derive(Debug, Clone, Default)]
pub struct OpenApiInterpreter {
    config: OpenApiConfig,
}

impl OpenApiInterpreter {
    /// Creates an interpreter with the given configuration.
    pub fn new(config: OpenApiConfig) -> Self {
        OpenApiInterpreter { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &OpenApiConfig {
        &self.config
    }

    /// Runs Algorithm 1: interprets the prediction of `api` on `x0` for
    /// `class`.
    ///
    /// # Errors
    /// * [`InterpretError::ClassOutOfRange`] / [`InterpretError::TooFewClasses`]
    ///   / [`InterpretError::DimensionMismatch`] on invalid arguments.
    /// * [`InterpretError::BudgetExhausted`] when `max_iterations` sampling
    ///   rounds never produced `C − 1` consistent systems — for a true PLM
    ///   this happens only if `x0` lies exactly on a region boundary
    ///   (probability 0) or the API degrades its outputs.
    pub fn interpret<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0: &Vector,
        class: usize,
        rng: &mut R,
    ) -> Result<OpenApiResult, InterpretError> {
        // Validate BEFORE the x0 probe: a metered API must not be billed
        // for a call that was doomed by its arguments.
        validate_request(api.dim(), api.num_classes(), x0, class)?;
        let x0_probe = Probe::query(api, x0.clone());
        self.interpret_with_probe(api, x0_probe, class, rng)
    }

    /// Runs Algorithm 1 starting from an already-queried probe of `x0` —
    /// the batch layer pays one membership probe per instance and reuses it
    /// here on a cache miss, so no instance is ever queried twice.
    ///
    /// `x0_probe` must come from this `api`; [`OpenApiResult::queries`]
    /// includes the probe, exactly as if [`OpenApiInterpreter::interpret`]
    /// had issued it.
    ///
    /// # Errors
    /// As [`OpenApiInterpreter::interpret`].
    pub fn interpret_with_probe<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0_probe: Probe,
        class: usize,
        rng: &mut R,
    ) -> Result<OpenApiResult, InterpretError> {
        let d = api.dim();
        let c_total = api.num_classes();
        validate_request(d, c_total, &x0_probe.x, class)?;
        let x0 = x0_probe.x.clone();
        let mut queries = 1usize;
        let mut edge = self.config.initial_edge;
        let mut log = Vec::new();

        for iteration in 1..=self.config.max_iterations {
            // Sample d + 1 fresh instances; together with x0 they form the
            // d + 2 equations of Ω_{d+2}.
            let samples = sample_many(x0.as_slice(), edge, d + 1, rng);
            let mut probes = Vec::with_capacity(d + 2);
            probes.push(x0_probe.clone());
            for x in &samples {
                probes.push(Probe::query(api, x.clone()));
            }
            queries += d + 1;

            let system = EquationSystem::new(probes);
            let outcome = self.try_all_contrasts(&system, class, c_total);
            match outcome {
                Ok((pairwise, worst_residual)) => {
                    log.push(IterationLog {
                        edge,
                        consistent_contrasts: c_total - 1,
                        required_contrasts: c_total - 1,
                        worst_residual,
                        degenerate: false,
                    });
                    let interpretation = Interpretation::from_pairwise(class, pairwise)?;
                    return Ok(OpenApiResult {
                        interpretation,
                        iterations: iteration,
                        final_edge: edge,
                        queries,
                        log,
                        samples,
                    });
                }
                Err(iter_log) => {
                    log.push(IterationLog { edge, ..iter_log });
                    edge *= self.config.shrink_factor;
                    if edge < f64::MIN_POSITIVE * 4.0 {
                        // The cube has shrunk below representable widths;
                        // further iterations would sample duplicates.
                        break;
                    }
                }
            }
        }

        let unsatisfied = (0..c_total).filter(|&cp| cp != class).collect();
        Err(InterpretError::BudgetExhausted {
            iterations: log.len(),
            final_edge: edge,
            unsatisfied,
        })
    }

    /// Convenience: interpret the API's own predicted class at `x0`.
    ///
    /// # Errors
    /// As [`OpenApiInterpreter::interpret`].
    pub fn interpret_predicted<M: PredictionApi, R: Rng>(
        &self,
        api: &M,
        x0: &Vector,
        rng: &mut R,
    ) -> Result<OpenApiResult, InterpretError> {
        let class = api.predict_label(x0.as_slice());
        self.interpret(api, x0, class, rng)
    }

    /// Checks every contrast on one sampled system. On success returns the
    /// recovered pairwise parameters; on failure returns the iteration log
    /// entry (minus the edge, filled by the caller).
    fn try_all_contrasts(
        &self,
        system: &EquationSystem,
        class: usize,
        c_total: usize,
    ) -> Result<(Vec<crate::decision::PairwiseCoreParams>, f64), IterationLog> {
        let required = c_total - 1;
        let solver = match ConsistencySolver::new(system, self.config.strategy, self.config.rtol) {
            Ok(s) => s,
            Err(_) => {
                // Degenerate sampling geometry (probability 0): resample.
                return Err(IterationLog {
                    edge: 0.0,
                    consistent_contrasts: 0,
                    required_contrasts: required,
                    worst_residual: f64::INFINITY,
                    degenerate: true,
                });
            }
        };
        let mut pairwise = Vec::with_capacity(required);
        let mut worst_residual = 0.0f64;
        let mut consistent = 0usize;
        for c_prime in (0..c_total).filter(|&cp| cp != class) {
            match solver.check(&system.rhs(class, c_prime), c_prime) {
                Ok(verdict) => {
                    worst_residual = worst_residual.max(verdict.residual);
                    if verdict.consistent {
                        consistent += 1;
                        pairwise.push(verdict.params);
                    } else {
                        // Algorithm 1 needs ALL contrasts consistent; one
                        // failure dooms the iteration, so skip the solver
                        // work for the remaining contrasts and resample.
                        return Err(IterationLog {
                            edge: 0.0,
                            consistent_contrasts: consistent,
                            required_contrasts: required,
                            worst_residual,
                            degenerate: false,
                        });
                    }
                }
                Err(LinalgError::RankDeficient { .. }) | Err(_) => {
                    return Err(IterationLog {
                        edge: 0.0,
                        consistent_contrasts: consistent,
                        required_contrasts: required,
                        worst_residual: f64::INFINITY,
                        degenerate: true,
                    });
                }
            }
        }
        // Every contrast was checked and none triggered the early exit.
        debug_assert_eq!(consistent, required);
        Ok((pairwise, worst_residual))
    }
}

/// Query cost of a failed interpretation, reconstructed from the error (a
/// failed run returns no [`OpenApiResult`] to read it from), not counting
/// the `x⁰` probe. Budget exhaustion spends `d + 1` sampling queries per
/// iteration; argument validation spends none. Every accounting layer
/// (the batch layer, the `openapi-serve` service) charges failures with
/// it, so they agree.
pub fn queries_consumed(error: &InterpretError, d: usize) -> usize {
    match error {
        InterpretError::BudgetExhausted { iterations, .. } => iterations * (d + 1),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openapi_api::{
        CountingApi, GroundTruthOracle, LinearSoftmaxModel, LocalLinearModel, TwoRegionPlm,
    };
    use openapi_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_model() -> LinearSoftmaxModel {
        let w = Matrix::from_rows(&[
            &[1.0, -0.5, 0.25, 0.8],
            &[0.0, 2.0, -1.0, -0.3],
            &[-1.5, 0.5, 0.75, 0.1],
            &[0.3, -0.9, 0.4, 1.2],
        ])
        .unwrap();
        LinearSoftmaxModel::new(w, Vector(vec![0.1, -0.2, 0.3, 0.0]))
    }

    #[test]
    fn recovers_exact_decision_features_on_single_region_model() {
        // Logistic regression is a PLM with one region: OpenAPI must succeed
        // on the FIRST iteration with the exact D_c.
        let api = linear_model();
        let x0 = Vector(vec![0.3, -0.2, 0.5, 0.1]);
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(1);
        for class in 0..4 {
            let res = interp.interpret(&api, &x0, class, &mut rng).unwrap();
            assert_eq!(res.iterations, 1, "single region: first cube works");
            let truth = api.local().decision_features(class);
            let err = res
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "class {class}: L1Dist {err}");
            // Pairwise biases too.
            for p in &res.interpretation.pairwise {
                let want = api.local().pairwise_bias(class, p.c_prime);
                assert!((p.bias - want).abs() < 1e-7);
            }
        }
    }

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

    #[test]
    fn adaptively_shrinks_near_a_region_boundary() {
        // x0 sits 0.01 from the boundary; the initial edge 1.0 cube
        // straddles it, so with probability ≈ 0.87 per run the first sample
        // set mixes regions and OpenAPI must shrink. Run several seeds: the
        // answer must be EXACT on every run, and shrinking must be observed
        // on most runs.
        let api = two_region_model();
        let x0 = Vector(vec![0.49, 0.3]);
        let interp = OpenApiInterpreter::default();
        let truth = api.local_model(x0.as_slice()).decision_features(0);
        let mut shrank = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let res = interp.interpret(&api, &x0, 0, &mut rng).unwrap();
            let err = res
                .interpretation
                .decision_features
                .l1_distance(&truth)
                .unwrap();
            assert!(err < 1e-7, "seed {seed}: L1Dist {err}");
            assert_eq!(res.log.len(), res.iterations);
            if res.iterations > 1 {
                shrank += 1;
                assert!(res.final_edge < 1.0);
                // The log records the failed iterations.
                assert!(res.log[..res.iterations - 1]
                    .iter()
                    .all(|l| l.consistent_contrasts < l.required_contrasts));
            }
        }
        assert!(
            shrank >= 5,
            "expected shrinking on most runs, saw {shrank}/10"
        );
    }

    #[test]
    fn interprets_the_correct_side_of_the_boundary() {
        let api = two_region_model();
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(3);
        let lo = Vector(vec![0.2, 0.0]);
        let hi = Vector(vec![0.8, 0.0]);
        let d_lo = interp.interpret(&api, &lo, 0, &mut rng).unwrap();
        let d_hi = interp.interpret(&api, &hi, 0, &mut rng).unwrap();
        let t_lo = api.local_model(lo.as_slice()).decision_features(0);
        let t_hi = api.local_model(hi.as_slice()).decision_features(0);
        assert!(
            d_lo.interpretation
                .decision_features
                .l1_distance(&t_lo)
                .unwrap()
                < 1e-7
        );
        assert!(
            d_hi.interpretation
                .decision_features
                .l1_distance(&t_hi)
                .unwrap()
                < 1e-7
        );
        assert!(
            d_lo.interpretation
                .decision_features
                .l1_distance(&d_hi.interpretation.decision_features)
                .unwrap()
                > 0.5
        );
    }

    #[test]
    fn consistency_is_exact_within_a_region() {
        // Two instances in the same region get IDENTICAL interpretations up
        // to solver round-off — the paper's consistency property.
        let api = two_region_model();
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(4);
        let a = Vector(vec![0.1, 0.7]);
        let b = Vector(vec![0.3, -0.4]);
        let da = interp.interpret(&api, &a, 1, &mut rng).unwrap();
        let db = interp.interpret(&api, &b, 1, &mut rng).unwrap();
        let cs = da
            .interpretation
            .decision_features
            .cosine_similarity(&db.interpretation.decision_features)
            .unwrap();
        assert!((cs - 1.0).abs() < 1e-9, "cosine similarity {cs}");
    }

    #[test]
    fn query_accounting_matches_iterations() {
        let api = CountingApi::new(linear_model());
        let x0 = Vector(vec![0.0, 0.0, 0.0, 0.0]);
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(5);
        let res = interp.interpret(&api, &x0, 0, &mut rng).unwrap();
        assert_eq!(res.queries as u64, api.queries());
        assert_eq!(res.queries, 1 + res.iterations * (api.dim() + 1));
    }

    #[test]
    fn both_strategies_agree_on_the_answer() {
        let api = two_region_model();
        let x0 = Vector(vec![0.45, 0.2]);
        let mut cfg = OpenApiConfig::default();
        let mut rng1 = StdRng::seed_from_u64(6);
        let a = OpenApiInterpreter::new(cfg.clone())
            .interpret(&api, &x0, 0, &mut rng1)
            .unwrap();
        cfg.strategy = ConsistencyStrategy::LeastSquares;
        let mut rng2 = StdRng::seed_from_u64(6);
        let b = OpenApiInterpreter::new(cfg)
            .interpret(&api, &x0, 0, &mut rng2)
            .unwrap();
        let dist = a
            .interpretation
            .decision_features
            .l1_distance(&b.interpretation.decision_features)
            .unwrap();
        assert!(dist < 1e-7, "strategies disagree by {dist}");
    }

    #[test]
    fn budget_exhaustion_is_reported_not_silent() {
        // A tiny iteration budget with a point essentially on the boundary.
        let api = two_region_model();
        let x0 = Vector(vec![0.5, 0.0]); // exactly on the boundary
        let cfg = OpenApiConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let res = OpenApiInterpreter::new(cfg).interpret(&api, &x0, 0, &mut rng);
        // On the boundary the region routing puts x0 in the 'high' region,
        // but any cube contains 'low' points; with only 3 iterations the
        // cube may not shrink enough.
        match res {
            Err(InterpretError::BudgetExhausted { iterations, .. }) => {
                assert_eq!(iterations, 3);
            }
            Ok(r) => {
                // If it succeeded, the cube shrank enough that all samples
                // landed on the high side; verify exactness then.
                let truth = api.local_model(x0.as_slice()).decision_features(0);
                assert!(
                    r.interpretation
                        .decision_features
                        .l1_distance(&truth)
                        .unwrap()
                        < 1e-7
                );
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn inconsistent_contrast_aborts_the_iteration_early() {
        // Build a probe set that is consistent for contrast (0, 2) but
        // corrupted for (0, 1): the first failing contrast must abort the
        // sweep, so the later (consistent) contrast is never counted.
        let api = linear_model();
        let x0 = Vector(vec![0.1, 0.2, -0.1, 0.3]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut probes = vec![Probe::query(&api, x0.clone())];
        for x in crate::sampler::sample_many(x0.as_slice(), 0.5, api.dim() + 1, &mut rng) {
            probes.push(Probe::query(&api, x));
        }
        // Double class 1's probability on the last probe only: log-ratios
        // involving class 1 shift by ln 2 on that equation, others are
        // untouched.
        probes.last_mut().unwrap().probs[1] *= 2.0;
        let system = EquationSystem::new(probes);
        let interp = OpenApiInterpreter::default();
        let log = interp
            .try_all_contrasts(&system, 0, api.num_classes())
            .expect_err("contrast (0,1) is corrupted");
        assert!(!log.degenerate);
        assert_eq!(log.required_contrasts, 3);
        // Early exit at the FIRST contrast (c' = 1): the consistent
        // contrasts (0,2) and (0,3) after it must not be counted or solved.
        assert_eq!(log.consistent_contrasts, 0);
        assert!(log.worst_residual.is_finite());
        // Sanity: without the corruption every contrast is consistent.
        let mut rng = StdRng::seed_from_u64(11);
        let mut clean = vec![Probe::query(&api, x0.clone())];
        for x in crate::sampler::sample_many(x0.as_slice(), 0.5, api.dim() + 1, &mut rng) {
            clean.push(Probe::query(&api, x));
        }
        let clean_system = EquationSystem::new(clean);
        assert!(interp
            .try_all_contrasts(&clean_system, 0, api.num_classes())
            .is_ok());
    }

    #[test]
    fn interpret_with_probe_matches_interpret_bit_for_bit() {
        let api = two_region_model();
        let x0 = Vector(vec![0.3, -0.2]);
        let interp = OpenApiInterpreter::default();
        let mut rng_a = StdRng::seed_from_u64(12);
        let a = interp.interpret(&api, &x0, 0, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(12);
        let probe = Probe::query(&api, x0.clone());
        let b = interp
            .interpret_with_probe(&api, probe, 0, &mut rng_b)
            .unwrap();
        assert_eq!(a.interpretation, b.interpretation);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn argument_validation() {
        let api = linear_model();
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(8);
        let short = Vector(vec![0.0; 2]);
        assert!(matches!(
            interp.interpret(&api, &short, 0, &mut rng),
            Err(InterpretError::DimensionMismatch { .. })
        ));
        let x0 = Vector(vec![0.0; 4]);
        assert!(matches!(
            interp.interpret(&api, &x0, 9, &mut rng),
            Err(InterpretError::ClassOutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_arguments_cost_zero_queries() {
        // A metered API must not be billed for calls doomed by their
        // arguments: validation runs before the x0 probe.
        let api = CountingApi::new(linear_model());
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(10);
        let _ = interp.interpret(&api, &Vector(vec![0.0; 2]), 0, &mut rng);
        let _ = interp.interpret(&api, &Vector(vec![0.0; 4]), 9, &mut rng);
        assert_eq!(api.queries(), 0);
    }

    #[test]
    fn interpret_predicted_uses_argmax_class() {
        let api = linear_model();
        let x0 = Vector(vec![0.3, -0.2, 0.5, 0.1]);
        let interp = OpenApiInterpreter::default();
        let mut rng = StdRng::seed_from_u64(9);
        let res = interp.interpret_predicted(&api, &x0, &mut rng).unwrap();
        assert_eq!(res.interpretation.class, api.predict_label(x0.as_slice()));
    }
}
