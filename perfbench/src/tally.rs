//! What the request loops record, kept small and flat: per request three
//! `u32`s (plus two more in a traced phase), everything else aggregated,
//! so the benchmark's own memory barely moves `rss_peak_mb`.

use crate::gate::Gate;
use crate::quantile::Sorted;
use openapi_core::{Interpretation, RegionFingerprint};
use openapi_net::wire::RemoteServed;
use openapi_serve::{ServeOutcome, Served, StatsSnapshot};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Width of the windows whose median gives throughput and p50 latency,
/// so a burst of outside load in one window does not move the figure.
pub const WINDOW_S: f64 = 1.0;

/// A window in which the hypervisor stole more than this share of the
/// machine is left out of the windowed medians: on the recording host a
/// quiet window loses 0–1%, and 15–20% steal doubles warm latency.
pub const STEAL_MAX: f64 = 0.02;

/// The windowed medians use every window unless at least this many are
/// steal-free.
pub const MIN_QUIET_WINDOWS: usize = 5;

/// A failed request's latency: infinitely late.
const FAILED: u32 = u32::MAX;

fn outcome_index(outcome: ServeOutcome) -> usize {
    match outcome {
        ServeOutcome::CacheHit => 0,
        ServeOutcome::StoreHit => 1,
        ServeOutcome::Solved => 2,
        ServeOutcome::Coalesced => 3,
    }
}

const OUTCOME_NAMES: [&str; 4] = ["cache_hit", "store_hit", "solved", "coalesced"];

fn ns_u32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(FAILED - 1)
}

/// The fields of a reply the tally needs, local or remote.
pub struct ServedView<'a> {
    interpretation: &'a Arc<Interpretation>,
    fingerprint: RegionFingerprint,
    outcome: ServeOutcome,
    queries: usize,
    latency: Duration,
}

impl<'a> From<&'a RemoteServed> for ServedView<'a> {
    fn from(s: &'a RemoteServed) -> Self {
        ServedView {
            interpretation: &s.interpretation,
            fingerprint: s.fingerprint,
            outcome: s.outcome,
            queries: s.queries,
            latency: s.server_latency,
        }
    }
}

impl<'a> From<&'a Served> for ServedView<'a> {
    fn from(s: &'a Served) -> Self {
        ServedView {
            interpretation: &s.interpretation,
            fingerprint: s.fingerprint,
            outcome: s.outcome,
            queries: s.queries,
            latency: s.latency,
        }
    }
}

/// Timestamps of one request, ns on the [`crate::trace::now_ns`] clock.
#[derive(Debug, Clone, Copy)]
pub struct Times {
    /// When the phase started.
    pub phase_ns: u64,
    /// When the request was due (the send time on a closed loop).
    pub due_ns: u64,
    /// When it was sent.
    pub send_ns: u64,
    /// When its reply arrived.
    pub end_ns: u64,
    /// How late the generator sent it.
    pub lag_ns: u64,
}

/// What one or more request loops saw in one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client latency from the due time, ns ([`FAILED`] = failed).
    latency_ns: Vec<u32>,
    /// Completion time since the phase started, µs.
    done_us: Vec<u32>,
    /// Generator lag, ns.
    lag_ns: Vec<u32>,
    /// Traced phase only: client latency from the send, and the
    /// service's own latency, ns.
    from_send_ns: Vec<u32>,
    service_ns: Vec<u32>,
    outcomes: [u64; 4],
    outcome_queries: [u64; 4],
    /// (instance, queries) of every request that led a solve.
    solved: Vec<(u32, u32)>,
    /// Requests per served (instance, region fingerprint) pair.
    pairs: HashMap<(u32, u64), u64>,
    busy: u64,
    errors: Vec<String>,
    gate: Gate,
}

impl Tally {
    /// A tally whose per-request buffers already hold `requests` entries'
    /// worth of written memory, so a phase of up to that many requests
    /// neither reallocates inside the timed loop nor grows the process's
    /// resident set with its own throughput (which would tie
    /// `rss_peak_mb` to `throughput_rps`).
    pub fn with_capacity(requests: usize) -> Self {
        let mut tally = Tally::default();
        for v in [&mut tally.latency_ns, &mut tally.done_us, &mut tally.lag_ns] {
            v.resize(requests, 0);
            v.clear();
        }
        tally
    }

    /// Records a reply (after its latency was taken).
    pub fn served(&mut self, instance: usize, s: ServedView<'_>, t: Times, traced: bool) {
        self.push_times(t);
        if traced {
            self.from_send_ns.push(ns_u32(t.end_ns - t.send_ns));
            self.service_ns.push(ns_u32(s.latency.as_nanos() as u64));
        }
        self.gate.observe(s.fingerprint.0, s.interpretation);
        let k = outcome_index(s.outcome);
        self.outcomes[k] += 1;
        self.outcome_queries[k] += s.queries as u64;
        if s.outcome == ServeOutcome::Solved {
            self.solved.push((instance as u32, s.queries as u32));
        }
        *self
            .pairs
            .entry((instance as u32, s.fingerprint.0))
            .or_default() += 1;
    }

    /// Records an Algorithm-1 solve made without a service (so without a
    /// cache or a fingerprint to keep consistent), after its latency was
    /// taken.
    pub fn solved_direct(&mut self, queries: usize, t: Times, traced: bool) {
        self.push_times(t);
        if traced {
            self.from_send_ns.push(ns_u32(t.end_ns - t.send_ns));
        }
        let k = outcome_index(ServeOutcome::Solved);
        self.outcomes[k] += 1;
        self.outcome_queries[k] += queries as u64;
    }

    /// Records a failed or refused request.
    pub fn failed(&mut self, why: String, busy: bool, t: Times) {
        self.push_times(t);
        *self.latency_ns.last_mut().expect("just pushed") = FAILED;
        self.busy += u64::from(busy);
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }

    fn push_times(&mut self, t: Times) {
        self.latency_ns
            .push(ns_u32(t.end_ns.saturating_sub(t.due_ns)));
        self.done_us
            .push(u32::try_from((t.end_ns - t.phase_ns) / 1000).unwrap_or(u32::MAX));
        self.lag_ns.push(ns_u32(t.lag_ns));
    }

    /// Folds another loop's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latency_ns.extend(other.latency_ns);
        self.done_us.extend(other.done_us);
        self.lag_ns.extend(other.lag_ns);
        self.from_send_ns.extend(other.from_send_ns);
        self.service_ns.extend(other.service_ns);
        for k in 0..4 {
            self.outcomes[k] += other.outcomes[k];
            self.outcome_queries[k] += other.outcome_queries[k];
        }
        self.solved.extend(other.solved);
        for (pair, n) in other.pairs {
            *self.pairs.entry(pair).or_default() += n;
        }
        self.busy += other.busy;
        self.errors.extend(other.errors);
        self.gate.merge(other.gate);
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    /// Requests served.
    pub fn served_count(&self) -> u64 {
        self.outcomes.iter().sum()
    }

    /// Requests that errored or were refused.
    pub fn failed_count(&self) -> u64 {
        self.attempted() - self.served_count()
    }

    /// Requests refused as `Busy`.
    pub fn busy(&self) -> u64 {
        self.busy
    }

    /// Up to 16 error messages.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Requests served with `outcome`, and the queries they spent.
    pub fn outcome(&self, outcome: ServeOutcome) -> (u64, u64) {
        let k = outcome_index(outcome);
        (self.outcomes[k], self.outcome_queries[k])
    }

    /// `name=count` per outcome.
    pub fn outcome_summary(&self) -> String {
        OUTCOME_NAMES
            .iter()
            .zip(self.outcomes)
            .map(|(name, n)| format!("{name}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// (instance, queries) of every solve this tally served.
    pub fn solved(&self) -> &[(u32, u32)] {
        &self.solved
    }

    /// Requests per served (instance, fingerprint) pair.
    pub fn pairs(&self) -> &HashMap<(u32, u64), u64> {
        &self.pairs
    }

    /// The consistency gate of this tally's replies.
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// Mutable access to the gate, for the post-phase checks.
    pub fn gate_mut(&mut self) -> &mut Gate {
        &mut self.gate
    }

    /// Client latencies in ms (failed requests infinite).
    pub fn latency_ms(&self) -> Sorted {
        Sorted::new(self.latency_ns.iter().map(|&ns| ms(ns)).collect())
    }

    /// Generator lags in ms.
    pub fn lag_ms(&self) -> Vec<f64> {
        self.lag_ns.iter().map(|&ns| ms(ns)).collect()
    }

    /// Traced phase: client latencies from the send, ms.
    pub fn from_send_ms(&self) -> Sorted {
        Sorted::new(self.from_send_ns.iter().map(|&ns| ms(ns)).collect())
    }

    /// Traced phase: the service's own latencies, ms.
    pub fn service_ms(&self) -> Sorted {
        Sorted::new(self.service_ns.iter().map(|&ns| ms(ns)).collect())
    }

    /// Per whole [`WINDOW_S`] window of a phase of `length` that `keep`
    /// admits (by index), successful requests only: the completion rate,
    /// and the latency (ms) at quantile `q` where the window holds enough
    /// samples for it. A window's rate is its completions after the first
    /// over the time from its first to its last completion, so it is not
    /// rounded to a whole count per window. Empty when the phase is
    /// shorter than one window.
    pub fn windows(
        &self,
        length: Duration,
        q: f64,
        keep: impl Fn(usize) -> bool,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = (length.as_secs_f64() / WINDOW_S).floor() as usize;
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut spans: Vec<(u32, u32)> = vec![(u32::MAX, 0); n];
        for (&lat, &done) in self.latency_ns.iter().zip(&self.done_us) {
            let w = (f64::from(done) / 1e6 / WINDOW_S) as usize;
            if lat != FAILED && w < n {
                latencies[w].push(ms(lat));
                spans[w] = (spans[w].0.min(done), spans[w].1.max(done));
            }
        }
        for (w, l) in latencies.iter_mut().enumerate() {
            if !keep(w) {
                l.clear();
            }
        }
        let rates = latencies
            .iter()
            .zip(&spans)
            .filter(|(l, (first, last))| l.len() >= 2 && last > first)
            .map(|(l, (first, last))| (l.len() - 1) as f64 / (f64::from(last - first) / 1e6))
            .collect();
        let quantiles = latencies
            .into_iter()
            .filter_map(|l| Sorted::new(l).percentile(q).ok())
            .collect();
        (rates, quantiles)
    }
}

fn ms(ns: u32) -> f64 {
    if ns == FAILED {
        f64::INFINITY
    } else {
        f64::from(ns) / 1e6
    }
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[v.len() / 2])
}

/// One timed phase: its tally, length, wall time, and the service's stats
/// around it (none when the phase calls the interpreter directly).
pub struct Phase {
    /// What the loops saw.
    pub tally: Tally,
    /// The scheduled length.
    pub length: Duration,
    /// Wall time until the last reply.
    pub wall_s: f64,
    /// Service stats at the start and the end.
    pub stats: Option<(StatsSnapshot, StatsSnapshot)>,
    /// Share of machine time stolen by the hypervisor in each window.
    pub window_steal: Vec<f64>,
}

impl Phase {
    /// Whether window `w` counts towards the windowed medians: it is
    /// steal-free (at most [`STEAL_MAX`] stolen), or fewer than
    /// [`MIN_QUIET_WINDOWS`] windows are, and then every window counts.
    /// The hypervisor's steal is outside the program, so leaving out a
    /// stolen window hides nothing the program did.
    pub fn counts(&self, w: usize) -> bool {
        self.quiet_windows() < MIN_QUIET_WINDOWS
            || self.window_steal.get(w).map_or(true, |&s| s <= STEAL_MAX)
    }

    /// Windows with at most [`STEAL_MAX`] stolen.
    pub fn quiet_windows(&self) -> usize {
        let n = (self.length.as_secs_f64() / WINDOW_S).floor() as usize;
        (0..n)
            .filter(|&w| self.window_steal.get(w).map_or(true, |&s| s <= STEAL_MAX))
            .count()
    }

    /// Completed requests per second: the median over the counted whole
    /// windows ([`Phase::counts`]), or over the whole phase when it is
    /// shorter than one window.
    pub fn throughput(&self) -> f64 {
        let (rates, _) = self.tally.windows(self.length, 0.5, |w| self.counts(w));
        median(&rates).unwrap_or(self.tally.served_count() as f64 / self.wall_s)
    }

    /// Client latency at quantile `q`: the median over the counted whole
    /// windows ([`Phase::counts`]) when every one holds enough samples for
    /// `q`, else over the whole phase, where failed requests count as
    /// infinitely late.
    ///
    /// # Errors
    /// When even the whole phase has too few samples for `q`.
    pub fn latency(&self, q: f64) -> Result<f64, crate::quantile::TooFewSamples> {
        let (rates, quantiles) = self.tally.windows(self.length, q, |w| self.counts(w));
        if self.tally.failed_count() == 0 && !rates.is_empty() && quantiles.len() == rates.len() {
            return Ok(median(&quantiles).expect("non-empty"));
        }
        self.tally.latency_ms().percentile(q)
    }

    /// Queries spent per request: by the service, per request it saw;
    /// without one, by the phase's solves, per solve.
    pub fn queries_per_request(&self) -> f64 {
        let (requests, queries) = match &self.stats {
            Some((before, after)) => (
                after.requests - before.requests,
                after.queries - before.queries,
            ),
            None => self.tally.outcome(ServeOutcome::Solved),
        };
        queries as f64 / requests.max(1) as f64
    }
}
