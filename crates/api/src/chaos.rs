//! Chaos backend: what a *hostile* production API does to its callers.
//!
//! The degradation wrappers in [`crate::degrade`] model polite services
//! that round or perturb their outputs. Real cloud APIs misbehave in
//! richer ways: they stall (latency spikes), refuse (rate limits,
//! transient 5xx), answer slightly wrong (noise bursts), and — the one
//! the interpretation stack must *detect*, not merely survive — they
//! silently redeploy a different model behind the same endpoint.
//! [`ChaosApi`] injects all four, deterministically from a seed, so the
//! adversarial suites can replay an exact chaos schedule and assert the
//! serving tier's drift detection fires on every stale region.
//!
//! Fault injection is runtime-reconfigurable ([`ChaosApi::configure`]):
//! tests warm the stack against a calm API, then switch the chaos on and
//! assert the warm path stays bit-identical — or schedule a silent model
//! swap and assert no stale interpretation survives it.

use crate::degrade::add_noise;
use crate::traits::{GroundTruthOracle, LocalLinearModel, PredictionApi, RegionId};
use openapi_linalg::Vector;
use openapi_sync::atomic::{AtomicU64, Ordering};
use openapi_sync::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Duration;

/// A prediction attempt refused by the API. These are *transient* by
/// construction — the service stayed up, the caller is expected to retry
/// — which is exactly what makes them dangerous to a query-frugal
/// interpreter: every retry is a billable query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiError {
    /// The caller exceeded its query budget window; retry after backoff.
    RateLimited,
    /// A transient server-side failure (the HTTP 5xx of this model).
    Transient,
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::RateLimited => f.write_str("rate limited"),
            ApiError::Transient => f.write_str("transient API failure"),
        }
    }
}

impl std::error::Error for ApiError {}

/// Runtime-tunable fault-injection knobs. All rates are probabilities in
/// `[0, 1)` drawn independently per prediction attempt from the seeded
/// RNG, so a given `(seed, schedule)` pair replays bit-identically.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Probability an attempt is refused with [`ApiError::RateLimited`].
    pub rate_limit_rate: f64,
    /// Probability an attempt is refused with [`ApiError::Transient`].
    pub transient_rate: f64,
    /// Probability an attempt stalls for [`ChaosConfig::spike`] first.
    pub latency_spike_rate: f64,
    /// How long a latency spike stalls the caller. Zero still *counts*
    /// the spike (so value-level tests can assert the schedule without
    /// slowing down) but skips the sleep.
    pub spike: Duration,
    /// Zero-mean uniform noise `±amplitude` added to each probability of
    /// an otherwise-successful response, then clamped and renormalized
    /// (the same bounded degradation as [`crate::degrade::NoisyApi`]).
    pub noise_amplitude: f64,
    /// How many consecutive refusals [`ChaosApi::predict`] absorbs by
    /// retrying before it forces a clean call through — the bounded
    /// client-side retry budget that keeps the infallible
    /// [`PredictionApi`] surface total even under heavy chaos.
    pub max_retries: usize,
}

impl Default for ChaosConfig {
    /// Starts **calm**: no failures, no spikes, no noise. Chaos is opted
    /// into per knob via [`ChaosApi::configure`], which is what lets a
    /// test warm the serving tier against clean responses first.
    fn default() -> Self {
        ChaosConfig {
            rate_limit_rate: 0.0,
            transient_rate: 0.0,
            latency_spike_rate: 0.0,
            spike: Duration::ZERO,
            noise_amplitude: 0.0,
            max_retries: 8,
        }
    }
}

impl ChaosConfig {
    fn validate(&self) {
        for (name, rate) in [
            ("rate_limit_rate", self.rate_limit_rate),
            ("transient_rate", self.transient_rate),
            ("latency_spike_rate", self.latency_spike_rate),
        ] {
            assert!(
                rate.is_finite() && (0.0..=1.0).contains(&rate),
                "chaos {name} {rate} outside [0, 1]"
            );
        }
        assert!(
            self.rate_limit_rate + self.transient_rate < 1.0,
            "total failure rate must stay below 1 or retries cannot make progress"
        );
        assert!(
            self.noise_amplitude.is_finite() && self.noise_amplitude >= 0.0,
            "bad noise amplitude"
        );
    }
}

/// Counters proving the chaos actually happened — a test that asserts
/// "the stack survived N rate limits" needs evidence there *were* N.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Successful predictions served (after any retries).
    pub served: u64,
    /// Attempts refused with [`ApiError::RateLimited`].
    pub rate_limited: u64,
    /// Attempts refused with [`ApiError::Transient`].
    pub transient: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Responses that carried injected noise.
    pub noisy: u64,
    /// Times [`ChaosApi::predict`] exhausted its retry budget and forced
    /// a clean call through.
    pub retries_exhausted: u64,
    /// Silent model swaps performed.
    pub swaps: u64,
}

/// Query count sentinel meaning "no swap scheduled".
const NEVER: u64 = u64::MAX;

/// A deterministic chaos wrapper around any [`PredictionApi`].
///
/// Composes with the [`crate::degrade`] wrappers (e.g.
/// `ChaosApi<QuantizedApi<M>>` models a rate-limited fixed-precision
/// service). The RNG sits behind a mutex so the wrapper stays `Sync`;
/// determinism comes from the seed, with draws consumed in attempt
/// order.
///
/// The headline fault is the **silent model swap**: the wrapper holds a
/// standby model and atomically redirects every subsequent query to it —
/// either at a scheduled query count ([`ChaosApi::schedule_swap`]) or
/// immediately ([`ChaosApi::swap_now`]). Nothing about the response
/// shape changes; only the serving tier's `explains_probe` consistency
/// check can notice, which is precisely the drift-detection loop the
/// adversarial suites exercise.
#[derive(Debug)]
pub struct ChaosApi<M> {
    models: Vec<M>,
    /// Index into `models` of the live deployment.
    active: AtomicU64,
    /// Successful queries after which the next query triggers a swap.
    swap_at: AtomicU64,
    served: AtomicU64,
    rate_limited: AtomicU64,
    transient: AtomicU64,
    latency_spikes: AtomicU64,
    noisy: AtomicU64,
    retries_exhausted: AtomicU64,
    swaps: AtomicU64,
    config: Mutex<ChaosConfig>,
    rng: Mutex<StdRng>,
}

impl<M: PredictionApi> ChaosApi<M> {
    /// Wraps `model` with a calm (all-off) chaos schedule, seeded for
    /// reproducibility.
    pub fn new(model: M, seed: u64) -> Self {
        ChaosApi {
            models: vec![model],
            active: AtomicU64::new(0),
            swap_at: AtomicU64::new(NEVER),
            served: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            transient: AtomicU64::new(0),
            latency_spikes: AtomicU64::new(0),
            noisy: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            config: Mutex::new(ChaosConfig::default()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Adds a standby model the silent swap will redirect to. Standbys
    /// activate in the order added, one per swap.
    ///
    /// # Panics
    /// Panics when the standby disagrees with the primary on shape — a
    /// silent swap keeps the endpoint's contract, only its function
    /// changes.
    pub fn with_standby(mut self, standby: M) -> Self {
        assert_eq!(
            standby.dim(),
            self.models[0].dim(),
            "standby model changes dim"
        );
        assert_eq!(
            standby.num_classes(),
            self.models[0].num_classes(),
            "standby model changes class count"
        );
        self.models.push(standby);
        self
    }

    /// Mutates the chaos knobs in place, atomically with respect to
    /// in-flight predictions.
    ///
    /// # Panics
    /// Panics when the resulting config is invalid (rates outside
    /// `[0, 1]`, total failure rate ≥ 1, non-finite amplitude).
    pub fn configure(&self, mutate: impl FnOnce(&mut ChaosConfig)) {
        let mut config = self.config.lock();
        mutate(&mut config);
        config.validate();
    }

    /// Schedules a silent model swap: once `after_queries` predictions
    /// have been served, the next one (and all following) come from the
    /// next standby. A no-op at prediction time if no standby remains.
    pub fn schedule_swap(&self, after_queries: u64) {
        // ordering: Relaxed — the swap schedule is a plain knob; the
        // predict path re-reads it on every attempt.
        self.swap_at.store(after_queries, Ordering::Relaxed);
    }

    /// Swaps to the next standby immediately. Returns `false` (and does
    /// nothing) when every standby is already live.
    pub fn swap_now(&self) -> bool {
        self.advance_active()
    }

    /// Index of the live model (0 = primary).
    pub fn active_model(&self) -> usize {
        // ordering: Relaxed — monotonic counter read for observation.
        self.active.load(Ordering::Relaxed) as usize
    }

    /// Borrows the live model — the ground truth *as of now*, which is
    /// what post-swap exactness must be judged against.
    pub fn live(&self) -> &M {
        &self.models[self.active_model()]
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        // ordering: Relaxed — independent counters; a snapshot torn
        // across concurrent predictions is still a valid observation.
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ChaosStats {
            served: ld(&self.served),
            rate_limited: ld(&self.rate_limited),
            transient: ld(&self.transient),
            latency_spikes: ld(&self.latency_spikes),
            noisy: ld(&self.noisy),
            retries_exhausted: ld(&self.retries_exhausted),
            swaps: ld(&self.swaps),
        }
    }

    /// One prediction attempt, refusable. This is the surface a
    /// retry-aware caller would use; [`PredictionApi::predict`] wraps it
    /// in the bounded retry loop.
    ///
    /// # Errors
    /// [`ApiError`] when this attempt drew a refusal.
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    pub fn try_predict(&self, x: &[f64]) -> Result<Vector, ApiError> {
        self.maybe_swap();
        let config = self.config.lock().clone();
        // One draw per fault class, in a fixed order, so the chaos
        // schedule for a given seed is independent of which knobs are
        // currently enabled.
        let (spike, refusal, noise_seed) = {
            let mut rng = self.rng.lock();
            let spike = rng.gen::<f64>() < config.latency_spike_rate;
            let fail: f64 = rng.gen();
            let refusal = if fail < config.rate_limit_rate {
                Some(ApiError::RateLimited)
            } else if fail < config.rate_limit_rate + config.transient_rate {
                Some(ApiError::Transient)
            } else {
                None
            };
            (spike, refusal, rng.gen::<u64>())
        };
        if spike {
            // ordering: Relaxed — independent event counter.
            self.latency_spikes.fetch_add(1, Ordering::Relaxed);
            if !config.spike.is_zero() {
                std::thread::sleep(config.spike);
            }
        }
        if let Some(e) = refusal {
            let counter = match e {
                ApiError::RateLimited => &self.rate_limited,
                ApiError::Transient => &self.transient,
            };
            // ordering: Relaxed — independent event counter.
            counter.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        Ok(self.respond(x, &config, noise_seed))
    }

    /// Serves a successful response: live-model prediction plus any
    /// configured noise, with the served-query counter advanced.
    fn respond(&self, x: &[f64], config: &ChaosConfig, noise_seed: u64) -> Vector {
        let mut p = self.live().predict(x);
        if config.noise_amplitude > 0.0 {
            // A derived per-response RNG keeps the main stream's draw
            // count independent of the output dimensionality.
            let mut rng = StdRng::seed_from_u64(noise_seed);
            add_noise(&mut p, config.noise_amplitude, &mut rng);
            // ordering: Relaxed — independent event counter.
            self.noisy.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Relaxed — the swap check re-reads this; exact
        // swap-point interleaving under concurrency is inherently racy
        // and the drift detector upstream handles either side.
        self.served.fetch_add(1, Ordering::Relaxed);
        p
    }

    /// Performs the scheduled swap once the served-query count crosses
    /// the schedule.
    fn maybe_swap(&self) {
        // ordering: Relaxed — see `schedule_swap`; the CAS below makes
        // the swap itself single-shot.
        let at = self.swap_at.load(Ordering::Relaxed);
        if at == NEVER || self.served.load(Ordering::Relaxed) < at {
            return;
        }
        let disarmed = self
            .swap_at
            // ordering: Relaxed — single-shot disarm; losing the race just
            // means the other thread performed the identical swap.
            .compare_exchange(at, NEVER, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if disarmed {
            self.advance_active();
        }
    }

    fn advance_active(&self) -> bool {
        // ordering: Relaxed — bounded monotonic index; readers tolerate
        // observing either side of the swap.
        let current = self.active.load(Ordering::Relaxed) as usize;
        if current + 1 >= self.models.len() {
            return false;
        }
        // ordering: Relaxed — see above; the store publishes only the index.
        self.active.store(current as u64 + 1, Ordering::Relaxed);
        // ordering: Relaxed — independent event counter.
        self.swaps.fetch_add(1, Ordering::Relaxed);
        true
    }
}

impl<M: PredictionApi> PredictionApi for ChaosApi<M> {
    fn dim(&self) -> usize {
        self.models[0].dim()
    }

    fn num_classes(&self) -> usize {
        self.models[0].num_classes()
    }

    /// Predicts through the chaos: refusals are absorbed by retrying up
    /// to [`ChaosConfig::max_retries`] times, after which a clean call
    /// is forced through (counted in
    /// [`ChaosStats::retries_exhausted`]). Since the validated failure
    /// rate is < 1, the expected retry count is finite and the surface
    /// stays total — the serving tier above never sees a refusal, only
    /// the latency and noise.
    fn predict(&self, x: &[f64]) -> Vector {
        let max_retries = self.config.lock().max_retries;
        for _ in 0..=max_retries {
            if let Ok(p) = self.try_predict(x) {
                return p;
            }
        }
        // ordering: Relaxed — independent event counter.
        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
        self.maybe_swap();
        let config = self.config.lock().clone();
        let noise_seed = self.rng.lock().gen::<u64>();
        self.respond(x, &config, noise_seed)
    }
}

// Ground truth follows the *live* model: after a silent swap, exactness
// (and the drift detector's verdicts) must be judged against what the
// endpoint now computes, not what it used to.
impl<M: GroundTruthOracle> GroundTruthOracle for ChaosApi<M> {
    fn region_id(&self, x: &[f64]) -> RegionId {
        self.live().region_id(x)
    }

    fn local_model(&self, x: &[f64]) -> LocalLinearModel {
        self.live().local_model(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSoftmaxModel;
    use crate::toy::TwoRegionPlm;
    use openapi_linalg::Matrix;

    fn model() -> LinearSoftmaxModel {
        LinearSoftmaxModel::new(
            Matrix::from_rows(&[&[1.3, -0.4], &[-0.2, 0.9]]).unwrap(),
            Vector(vec![0.1, -0.1]),
        )
    }

    #[test]
    fn calm_chaos_is_bit_identical_to_the_inner_model() {
        let api = ChaosApi::new(model(), 3);
        for i in 0..16 {
            let x = [i as f64 * 0.2 - 1.0, 0.3];
            assert_eq!(api.predict(&x), model().predict(&x));
        }
        let stats = api.stats();
        assert_eq!(stats.served, 16);
        assert_eq!(stats.rate_limited + stats.transient + stats.noisy, 0);
    }

    #[test]
    fn chaos_schedule_is_seed_deterministic() {
        let build = || {
            let api = ChaosApi::new(model(), 41);
            api.configure(|c| {
                c.rate_limit_rate = 0.2;
                c.transient_rate = 0.1;
                c.noise_amplitude = 0.01;
                c.latency_spike_rate = 0.3;
            });
            api
        };
        let a = build();
        let b = build();
        let x = [0.4, -0.2];
        for _ in 0..64 {
            assert_eq!(a.try_predict(&x), b.try_predict(&x));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().rate_limited > 0, "schedule must inject failures");
        assert!(a.stats().latency_spikes > 0, "schedule must inject spikes");
    }

    #[test]
    fn predict_absorbs_refusals_and_stays_total() {
        let api = ChaosApi::new(model(), 7);
        api.configure(|c| {
            c.rate_limit_rate = 0.45;
            c.transient_rate = 0.45;
            c.max_retries = 64;
        });
        let x = [0.1, 0.9];
        for _ in 0..200 {
            let p = api.predict(&x);
            assert_eq!(p, model().predict(&x), "noise off: values stay exact");
        }
        let stats = api.stats();
        assert_eq!(stats.served, 200);
        assert!(stats.rate_limited > 0 && stats.transient > 0);
    }

    #[test]
    fn exhausted_retry_budget_forces_a_clean_call() {
        let api = ChaosApi::new(model(), 11);
        api.configure(|c| {
            c.rate_limit_rate = 0.55;
            c.transient_rate = 0.40;
            c.max_retries = 0;
        });
        let x = [0.0, 0.0];
        for _ in 0..50 {
            let _ = api.predict(&x);
        }
        let stats = api.stats();
        assert_eq!(stats.served, 50, "predict never fails outward");
        assert!(stats.retries_exhausted > 0, "budget of 0 must exhaust");
    }

    #[test]
    fn noise_is_bounded_and_responses_stay_distributions() {
        let api = ChaosApi::new(model(), 13);
        api.configure(|c| c.noise_amplitude = 0.05);
        for i in 0..32 {
            let x = [i as f64 * 0.1, -(i as f64) * 0.07];
            let p = api.predict(&x);
            assert!(p.iter().all(|v| *v >= 0.0));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert_eq!(api.stats().noisy, 32);
    }

    #[test]
    fn scheduled_swap_fires_exactly_once_at_the_query_count() {
        let api =
            ChaosApi::new(TwoRegionPlm::reference(), 5).with_standby(TwoRegionPlm::reference_v2());
        api.schedule_swap(3);
        let x = TwoRegionPlm::reference_instance(0);
        let before = api.predict(x.as_slice());
        assert_eq!(before, TwoRegionPlm::reference().predict(x.as_slice()));
        let _ = api.predict(x.as_slice());
        let _ = api.predict(x.as_slice());
        assert_eq!(api.active_model(), 0, "swap waits for the schedule");
        let after = api.predict(x.as_slice());
        assert_eq!(api.active_model(), 1, "fourth query crosses the schedule");
        assert_eq!(after, TwoRegionPlm::reference_v2().predict(x.as_slice()));
        assert_ne!(before, after, "the swap must actually change answers");
        assert_eq!(api.stats().swaps, 1);
    }

    #[test]
    fn swap_now_without_standby_is_refused() {
        let api = ChaosApi::new(model(), 1);
        assert!(!api.swap_now());
        assert_eq!(api.stats().swaps, 0);
        let with = ChaosApi::new(model(), 1).with_standby(model());
        assert!(with.swap_now());
        assert!(!with.swap_now(), "no standby left");
    }

    #[test]
    fn ground_truth_follows_the_live_model() {
        let api =
            ChaosApi::new(TwoRegionPlm::reference(), 2).with_standby(TwoRegionPlm::reference_v2());
        let x = TwoRegionPlm::reference_instance(1);
        let before = api.local_model(x.as_slice());
        api.swap_now();
        let after = api.local_model(x.as_slice());
        assert_ne!(before, after, "oracle must track the swap");
        assert_eq!(
            after,
            TwoRegionPlm::reference_v2().local_model(x.as_slice())
        );
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn saturating_failure_rates_are_rejected() {
        let api = ChaosApi::new(model(), 0);
        api.configure(|c| {
            c.rate_limit_rate = 0.6;
            c.transient_rate = 0.4;
        });
    }

    #[test]
    #[should_panic(expected = "changes dim")]
    fn standby_with_wrong_shape_is_rejected() {
        let narrow = LinearSoftmaxModel::new(Matrix::zeros(1, 2), Vector::zeros(2));
        let _ = ChaosApi::new(model(), 0).with_standby(narrow);
    }
}
