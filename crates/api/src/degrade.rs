//! Response-degradation wrappers: what real APIs do to their outputs.
//!
//! OpenAPI's exactness proof assumes the API returns real-valued softmax
//! probabilities. Production APIs often truncate to a few decimal places or
//! add noise (rate-limiting tarpits, differential privacy). These wrappers
//! let the failure-injection tests and ablation benches measure how the
//! consistency check behaves when that assumption is broken — the expected
//! (and observed) outcome is that `Ω_{d+2}` stops being consistent at any
//! radius and OpenAPI reports failure instead of returning a wrong answer.

use crate::traits::{GroundTruthOracle, LocalLinearModel, PredictionApi, RegionId};
use openapi_linalg::Vector;
use openapi_sync::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds each probability to `decimals` places.
///
/// Models an API that serializes probabilities with fixed precision (very
/// common: JSON responses with 4–6 digits). A real service rounds each value
/// independently at serialization time and does **not** re-sum them to 1, so
/// by default this wrapper returns the raw rounded values — the reported
/// distribution may sum to slightly more or less than 1, exactly as the JSON
/// a client sees would. [`QuantizedApi::renormalized`] opts into the
/// re-summing variant for studying that (milder, less realistic)
/// degradation instead.
#[derive(Debug, Clone)]
pub struct QuantizedApi<M> {
    inner: M,
    scale: f64,
    renormalize: bool,
}

impl<M> QuantizedApi<M> {
    /// Wraps `inner`, rounding to `decimals` decimal places. Rounded values
    /// are served as-is (no renormalization).
    ///
    /// # Panics
    /// Panics when `decimals > 15` (beyond f64 precision, the wrapper would
    /// be a no-op pretending otherwise).
    pub fn new(inner: M, decimals: u32) -> Self {
        assert!(decimals <= 15, "quantization beyond f64 precision");
        QuantizedApi {
            inner,
            scale: 10f64.powi(decimals as i32),
            renormalize: false,
        }
    }

    /// Like [`QuantizedApi::new`], but rescales the rounded values to sum
    /// to 1 (uniform when every class rounds to zero). This partially undoes
    /// the fixed-precision degradation — use it only to model services that
    /// explicitly re-normalize after rounding.
    ///
    /// # Panics
    /// Panics when `decimals > 15`.
    pub fn renormalized(inner: M, decimals: u32) -> Self {
        QuantizedApi {
            renormalize: true,
            ..Self::new(inner, decimals)
        }
    }

    /// Borrows the wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: PredictionApi> PredictionApi for QuantizedApi<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        let mut p = self.inner.predict(x);
        for v in p.iter_mut() {
            *v = (*v * self.scale).round() / self.scale;
        }
        if self.renormalize {
            renormalize(&mut p);
        }
        p
    }

    /// The predicted label, computed from the *full-precision* scores.
    ///
    /// A service rounds probabilities at serialization time but derives its
    /// label from the underlying scores, so the label never depends on how
    /// rounding broke a tie. This also makes tie-breaking well defined:
    /// rounding can map distinct probabilities onto the same grid value
    /// (e.g. `0.5004` and `0.4996` both to `0.500`), and an argmax over the
    /// rounded vector would silently resolve such ties by class order.
    fn predict_label(&self, x: &[f64]) -> usize {
        self.inner.predict_label(x)
    }
}

// Ground truth passes through: the *model* is unchanged, only its reported
// probabilities degrade — exactly the situation the failure tests study.
impl<M: GroundTruthOracle> GroundTruthOracle for QuantizedApi<M> {
    fn region_id(&self, x: &[f64]) -> RegionId {
        self.inner.region_id(x)
    }

    fn local_model(&self, x: &[f64]) -> LocalLinearModel {
        self.inner.local_model(x)
    }
}

/// Adds zero-mean uniform noise `±amplitude` to each probability, clamps to
/// `[0, 1]`, and renormalizes. At amplitude 0 outputs pass through
/// untouched.
///
/// The RNG sits behind a mutex so the wrapper stays `Sync`; determinism
/// comes from the seed, with draws consumed in query order.
#[derive(Debug)]
pub struct NoisyApi<M> {
    inner: M,
    amplitude: f64,
    rng: Mutex<StdRng>,
}

impl<M> NoisyApi<M> {
    /// Wraps `inner` with noise `±amplitude`, seeded for reproducibility.
    ///
    /// # Panics
    /// Panics when `amplitude` is negative or not finite.
    pub fn new(inner: M, amplitude: f64, seed: u64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "bad noise amplitude"
        );
        NoisyApi {
            inner,
            amplitude,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Borrows the wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: PredictionApi> PredictionApi for NoisyApi<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        let mut p = self.inner.predict(x);
        add_noise(&mut p, self.amplitude, &mut *self.rng.lock());
        p
    }
}

/// Adds zero-mean uniform noise `±amplitude` to each probability, drawn
/// from `rng` in class order, clamps to `[0, 1]`, and renormalizes
/// (uniform when every class clamps to zero). At amplitude 0 `p` is left
/// untouched and `rng` is not drawn from. Shared by [`NoisyApi`] and the
/// chaos backend's noise bursts.
pub(crate) fn add_noise<R: Rng>(p: &mut Vector, amplitude: f64, rng: &mut R) {
    if amplitude <= 0.0 {
        return;
    }
    for v in p.iter_mut() {
        *v = (*v + rng.gen_range(-amplitude..=amplitude)).clamp(0.0, 1.0);
    }
    renormalize(p);
}

/// Scales `p` to sum to 1. When every class is zero it falls back to
/// uniform, as a renormalizing service would rather than divide by zero.
fn renormalize(p: &mut Vector) {
    let sum: f64 = p.iter().sum();
    if sum > 0.0 {
        p.scale(1.0 / sum);
    } else {
        let c = p.len();
        for v in p.iter_mut() {
            *v = 1.0 / c as f64;
        }
    }
}

impl<M: GroundTruthOracle> GroundTruthOracle for NoisyApi<M> {
    fn region_id(&self, x: &[f64]) -> RegionId {
        self.inner.region_id(x)
    }

    fn local_model(&self, x: &[f64]) -> LocalLinearModel {
        self.inner.local_model(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSoftmaxModel;
    use openapi_linalg::Matrix;

    fn model() -> LinearSoftmaxModel {
        LinearSoftmaxModel::new(
            Matrix::from_rows(&[&[1.3, -0.4], &[-0.2, 0.9]]).unwrap(),
            Vector(vec![0.1, -0.1]),
        )
    }

    #[test]
    fn quantized_outputs_live_on_the_grid() {
        // Raw mode serves the rounded values untouched: every output sits
        // exactly on the 10⁻² grid, and the sum need not be exactly 1 — the
        // fixed-precision degradation a JSON response actually exhibits.
        let api = QuantizedApi::new(model(), 2);
        let p = api.predict(&[0.31, 0.77]);
        for v in p.iter() {
            assert_eq!((v * 100.0).round() / 100.0, *v, "off-grid value {v}");
        }
        let exact = model().predict(&[0.31, 0.77]);
        assert!(
            (p[0] / p[1] - exact[0] / exact[1]).abs() > 0.0,
            "quantization must perturb the ratio"
        );
        // Rounding errors stay within half a grid step per class.
        assert!((p.iter().sum::<f64>() - 1.0).abs() <= 0.01);
    }

    #[test]
    fn raw_rounding_does_not_renormalize() {
        // A uniform 3-class prediction rounds to (0.3, 0.3, 0.3) at one
        // decimal: the served sum is 0.9, exactly as the serialized JSON
        // would read — raw mode must NOT re-sum it to 1.
        let uniform = LinearSoftmaxModel::new(Matrix::zeros(2, 3), Vector::zeros(3));
        let api = QuantizedApi::new(uniform, 1);
        let p = api.predict(&[0.4, -1.7]);
        assert_eq!(p.as_slice(), &[0.3, 0.3, 0.3]);
        assert!((p.iter().sum::<f64>() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn renormalized_variant_sums_to_one() {
        let api = QuantizedApi::renormalized(model(), 1);
        for x in [[0.0, 0.0], [5.0, -3.0], [-2.0, 2.0]] {
            let p = api.predict(&x);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn heavy_quantization_stays_finite_in_both_modes() {
        // With 0 decimals everything rounds to 0 or 1.
        let raw = QuantizedApi::new(model(), 0);
        let p = raw.predict(&[10.0, 0.0]);
        assert!(p.is_finite());
        // float: 0-decimal quantization rounds to exactly 0.0 or 1.0 by
        // construction; bit-exact equality is the assertion.
        assert!(p.iter().all(|v| *v == 0.0 || *v == 1.0));
        let renorm = QuantizedApi::renormalized(model(), 0);
        let q = renorm.predict(&[10.0, 0.0]);
        assert!(q.is_finite());
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_label_uses_full_precision_scores_on_rounding_ties() {
        // A model whose probabilities at x straddle 0.5 by less than half a
        // 10⁻¹ grid step: both classes round to 0.5 (an exact tie), but the
        // true scores order class 1 first. The label must follow the scores.
        let w = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let tie_model = LinearSoftmaxModel::new(w, Vector(vec![0.0, 0.02]));
        let x = [0.3];
        let api = QuantizedApi::new(tie_model, 1);
        let p = api.predict(&x);
        assert_eq!(p[0], p[1], "rounding must create an exact tie");
        assert_eq!(api.predict_label(&x), 1, "label follows the true scores");
        // An argmax over the tied rounded vector would have said 0.
        assert_eq!(p.argmax().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn excessive_decimals_panic() {
        let _ = QuantizedApi::new(model(), 16);
    }

    #[test]
    fn noisy_api_is_seed_deterministic() {
        let a = NoisyApi::new(model(), 0.01, 7);
        let b = NoisyApi::new(model(), 0.01, 7);
        let x = [0.4, 0.6];
        assert_eq!(a.predict(&x), b.predict(&x));
        // Second draws also agree (stream determinism).
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn noisy_api_zero_amplitude_is_exact() {
        let api = NoisyApi::new(model(), 0.0, 1);
        let x = [0.4, 0.6];
        assert_eq!(api.predict(&x), model().predict(&x));
    }

    #[test]
    fn noisy_outputs_remain_valid_distributions() {
        let api = NoisyApi::new(model(), 0.3, 42);
        for i in 0..20 {
            let x = [i as f64 * 0.1, -(i as f64) * 0.05];
            let p = api.predict(&x);
            assert!(p.iter().all(|v| *v >= 0.0));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn oracle_passthrough_reports_undegraded_truth() {
        let api = QuantizedApi::new(model(), 2);
        let lm = api.local_model(&[0.0, 0.0]);
        assert_eq!(&lm, model().local());
    }
}
