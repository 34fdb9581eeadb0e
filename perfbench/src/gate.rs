//! The correctness gate every reply passes.
//!
//! * **Consistency** ([`Gate::observe`]): each region fingerprint maps to
//!   one bit-identical interpretation. This is the only check made inside
//!   the request loop — after the request's latency is taken — and it is
//!   one pass over the reply's parameters.
//! * **Exactness** and **Theorem 2** ([`Gate::check_exact`]): after the
//!   timed phase, every distinct (instance, region) pair the run served is
//!   compared with the white-box ground truth, and the interpretation must
//!   explain the live model's prediction at the instance.
//!
//! Count invariants (solves, queries per request) are per workload and
//! live with the workloads.

use openapi_api::GroundTruthOracle;
use openapi_core::Interpretation;
use openapi_linalg::Vector;
use openapi_metrics::exactness::{ground_truth_features, l1_dist};
use std::collections::HashMap;
use std::sync::Arc;

/// Relative L1 tolerance of the exactness check: Algorithm 1 recovers the
/// decision features to round-off (≈1e-13), far inside this bound.
pub const EXACT_RTOL: f64 = 1e-6;

/// Whether two interpretations are bit-identical, field by field.
pub fn bit_identical(a: &Interpretation, b: &Interpretation) -> bool {
    let same = |x: &Vector, y: &Vector| {
        x.len() == y.len()
            && x.iter()
                .zip(y.iter())
                .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.class == b.class
        && same(&a.decision_features, &b.decision_features)
        && a.pairwise.len() == b.pairwise.len()
        && a.pairwise.iter().zip(&b.pairwise).all(|(p, q)| {
            p.c_prime == q.c_prime
                && p.bias.to_bits() == q.bias.to_bits()
                && same(&p.weights, &q.weights)
        })
}

/// Collected verdicts for one run.
#[derive(Debug, Default)]
pub struct Gate {
    regions: HashMap<u64, Arc<Interpretation>>,
    failures: Vec<String>,
}

impl Gate {
    /// An empty gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Consistency: records the first interpretation served under
    /// `fingerprint` and checks every later one is bit-identical to it.
    /// Returns whether the reply passed.
    pub fn observe(&mut self, fingerprint: u64, interpretation: &Arc<Interpretation>) -> bool {
        match self.regions.get(&fingerprint) {
            None => {
                self.regions.insert(fingerprint, Arc::clone(interpretation));
                true
            }
            Some(first) if Arc::ptr_eq(first, interpretation) => true,
            Some(first) => {
                let ok = bit_identical(first, interpretation);
                if !ok {
                    self.fail(format!(
                        "region {fingerprint:#x} served two different interpretations"
                    ));
                }
                ok
            }
        }
    }

    /// Folds another thread's gate into this one, checking its regions
    /// against the ones seen here.
    pub fn merge(&mut self, other: Gate) {
        for (fingerprint, interpretation) in other.regions {
            self.observe(fingerprint, &interpretation);
        }
        self.failures.extend(other.failures);
    }

    /// The interpretation first served under `fingerprint`.
    pub fn region(&self, fingerprint: u64) -> Option<&Arc<Interpretation>> {
        self.regions.get(&fingerprint)
    }

    /// Exactness and Theorem 2 for one served (instance, interpretation)
    /// pair: the decision features match the model's ground truth at `x`
    /// within [`EXACT_RTOL`], and the interpretation explains the live
    /// model's prediction at `x` at the membership tolerance `rtol`.
    /// Returns whether the pair passed.
    pub fn check_exact<M: GroundTruthOracle>(
        &mut self,
        model: &M,
        x: &Vector,
        class: usize,
        interpretation: &Interpretation,
        rtol: f64,
    ) -> bool {
        if interpretation.class != class {
            self.fail(format!(
                "asked for class {class}, served class {}",
                interpretation.class
            ));
            return false;
        }
        let truth = ground_truth_features(model, x, class);
        let err = l1_dist(&truth, &interpretation.decision_features);
        let scale = truth.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        if err.is_nan() || err > EXACT_RTOL * scale {
            self.fail(format!(
                "decision features off by L1 {err:e} (scale {scale:e})"
            ));
            return false;
        }
        let probs = model.predict(x.as_slice());
        if !interpretation.explains_probe(x, probs.as_slice(), rtol) {
            self.fail("interpretation does not explain the live model at its instance".into());
            return false;
        }
        true
    }

    /// Records a failure that is not a wrong reply (an error, a refusal,
    /// or a broken count invariant).
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Every failure recorded, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
