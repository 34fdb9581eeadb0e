//! Bench-side tracing: spans around calls into each layer's public
//! functions, kept in memory and written out when the run ends.
//!
//! A span is `(name, id, parent, start, end)`; spans opened on one thread
//! nest through a thread-local stack. The hidden model's `predict` is far
//! too frequent to keep one span per call, so [`TimedApi`] aggregates it
//! instead: per-call durations (the first [`API_SAMPLE_CAP`] per thread)
//! plus exact totals, and the time is also charged to the enclosing span
//! as `api_ns`. A span's self time is its duration minus its child spans
//! and its `api_ns`.
//!
//! Recording is off unless [`set_enabled`] turned it on; a disabled
//! [`TimedApi`] costs one relaxed atomic load per prediction.

use openapi_api::PredictionApi;
use openapi_linalg::Vector;
use openapi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use openapi_sync::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-thread cap on kept `predict` durations (totals stay exact).
pub const API_SAMPLE_CAP: usize = 200_000;

/// Per-thread cap on kept spans.
pub const SPAN_CAP: usize = 1_000_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    // ordering: SeqCst — the switch is flipped between phases, never on a
    // hot path; the strongest order keeps phase boundaries obvious.
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    // ordering: Relaxed — a flag read; a call that races a flip may land in
    // either phase, which the phase boundaries tolerate.
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.solve`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id on the same thread, 0 for a root.
    pub parent: u64,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
    /// Time spent in the hidden model's `predict` inside this span and
    /// outside any child span.
    pub api_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    api_samples: Vec<u32>,
    api_total_ns: u64,
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<Buffer>>>> = const { RefCell::new(None) };
    /// Open spans on this thread: (id, start, accumulated api_ns).
    static STACK: RefCell<Vec<(u64, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<Buffer>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<Buffer>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn with_buffer(f: impl FnOnce(&mut Buffer)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer = Arc::new(Mutex::new(Buffer::default()));
            registry().lock().push(Arc::clone(&buffer));
            buffer
        });
        f(&mut buffer.lock());
    });
}

/// Runs `f` inside a span named `name` (a plain call when recording is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    // ordering: Relaxed — id uniqueness only; nothing is published.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_id();
    STACK.with(|s| s.borrow_mut().push((id, now_ns(), 0)));
    let out = f();
    let end_ns = now_ns();
    let (_, start_ns, api_ns) = STACK.with(|s| s.borrow_mut().pop().expect("span stack balanced"));
    with_buffer(|b| {
        if b.spans.len() < SPAN_CAP {
            b.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
                api_ns,
            });
        }
    });
    out
}

/// The innermost open span on this thread (0 when none).
pub fn current_id() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |top| top.0))
}

/// Records a span measured elsewhere (e.g. a server-reported latency
/// placed at the end of its client-side parent).
pub fn record(name: &'static str, parent: u64, start_ns: u64, end_ns: u64) {
    // ordering: Relaxed — id uniqueness only; nothing is published.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    with_buffer(|b| {
        if b.spans.len() < SPAN_CAP {
            b.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
                api_ns: 0,
            });
        }
    });
}

/// A [`PredictionApi`] wrapper timing every `predict` while recording is
/// on.
#[derive(Debug, Clone)]
pub struct TimedApi<M> {
    inner: M,
}

impl<M> TimedApi<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedApi { inner }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: PredictionApi> PredictionApi for TimedApi<M> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn predict(&self, x: &[f64]) -> Vector {
        if !enabled() {
            return self.inner.predict(x);
        }
        let start = now_ns();
        let out = self.inner.predict(x);
        let ns = now_ns() - start;
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.2 += ns;
            }
        });
        with_buffer(|b| {
            b.api_total_ns += ns;
            if b.api_samples.len() < API_SAMPLE_CAP {
                b.api_samples.push(ns.min(u64::from(u32::MAX)) as u32);
            }
        });
        out
    }
}

/// Everything recorded since the last [`drain`].
#[derive(Debug, Default)]
pub struct Recorded {
    /// Spans from every thread.
    pub spans: Vec<Span>,
    /// Kept `predict` durations, ns.
    pub api_samples: Vec<u32>,
    /// Exact total `predict` time, ns.
    pub api_total_ns: u64,
}

impl Recorded {
    /// Per span name: (count, total ns, self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.duration_ns();
            let own = total
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
                .saturating_sub(s.api_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// Writes the spans as tab-separated lines (name, id, parent, start,
    /// end, api_ns), start-ordered.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns\tapi_ns")?;
        for s in spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, s.api_ns
            )?;
        }
        out.flush()
    }
}

/// Takes everything every thread recorded so far, leaving the buffers
/// empty.
pub fn drain() -> Recorded {
    let mut all = Recorded::default();
    for buffer in registry().lock().iter() {
        let mut b = buffer.lock();
        all.spans.append(&mut b.spans);
        all.api_samples.append(&mut b.api_samples);
        all.api_total_ns += std::mem::take(&mut b.api_total_ns);
    }
    all
}
