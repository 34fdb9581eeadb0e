//! The region cache: Theorem 2 turned into a lookup structure.
//!
//! Every instance of a locally linear region recovers the **identical**
//! core parameters (Theorem 2), so interpretation results are cacheable per
//! *region*, not per instance. [`RegionCache`] owns the membership-probe
//! lookup, the canonical-fingerprint merge, and the collision fallback, so
//! the single-threaded batch layer ([`crate::batch::BatchInterpreter`], a
//! per-instance loop of probe → [`RegionCache::lookup_probe`] → solve →
//! [`RegionCache::insert`]) and the sharded concurrent cache in
//! `openapi-serve` share exactly one membership code path.
//!
//! Two lookup modes, both sound by Theorem 2:
//!
//! * [`RegionCache::lookup_probe`] — black-box: a cached region's parameters
//!   either explain the probed prediction at every contrast
//!   ([`Interpretation::explains_probe`]), in which case the probe lies in
//!   that region and the cached interpretation is *its* interpretation, or
//!   they don't and the scan moves on.
//! * [`RegionCache::lookup_region`] — white-box oracle fast path keyed on
//!   [`RegionId`], for evaluation and tests (zero queries per hit).
//!
//! # The blocked membership scan
//!
//! The black-box scan runs once per warm request. It is not the warm
//! path's dominant cost — `perfbench/README.md` measures `core.scan_share`
//! at 0.009 (warm-wire-d8) and 0.007 (warm-wire-d196), with the wire
//! dominating — but it stays cheap by not walking per-entry heap
//! allocations: alongside the entries, the cache packs every boundary row
//! of a class into one contiguous row-major [`RowMatrix`] per
//! `(class, dimension)` pair (a `ClassBlock`), rebuilt incrementally on
//! insert and eviction. A probe then runs as one batched
//! kernel pass per chunk of rows — `y = W·x + b` for every cached contrast,
//! Theorem-2 verdicts per region group — through the configured
//! [`Backend`]. The observed log-probability ratios are memoized per probe
//! (one `ln` per class instead of one per cached region), and
//! [`RegionCache::lookup_probe_batch`] additionally iterates chunk-outer /
//! probe-inner, running each chunk through the backend's *multi-probe*
//! kernel ([`Backend::boundary_eval_batch`]) so a whole batch shares one
//! sweep of the packed rows while they are hot in cache — the service's
//! `submit_batch` and the wire's `InterpretBatch` use it. Backends are
//! bit-identical by contract, so the verdicts do not depend on which one
//! is configured.
//!
//! An optional capacity bound turns the cache into a CLOCK (second-chance)
//! eviction structure: lookups mark entries referenced through an atomic
//! flag (no `&mut` required, so shared readers stay cheap), and inserts
//! past capacity sweep the clock hand for an unreferenced victim. The
//! unbounded configuration — the batch layer's — never evicts and preserves
//! strict insertion order, keeping pre-extraction behavior bit-identical.

use crate::decision::{Interpretation, RegionFingerprint};
use openapi_api::RegionId;
use openapi_linalg::kernel::{default_backend, Backend, RowGroup, RowMatrix};
use openapi_linalg::Vector;
use openapi_sync::atomic::{AtomicBool, Ordering};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Rows evaluated per kernel pass of the membership scan. Sized so a
/// chunk of `d = 196` boundaries (~200 KB) stays resident in L2 while a
/// probe batch re-walks it, while still amortizing the per-pass setup.
const CHUNK_ROWS: usize = 128;

/// Configuration of a [`RegionCache`].
#[derive(Debug, Clone)]
pub struct RegionCacheConfig {
    /// Relative tolerance of the membership test (see
    /// [`crate::batch::BatchConfig::membership_rtol`]).
    pub membership_rtol: f64,
    /// Decimal places used to canonicalize recovered core parameters into a
    /// [`RegionFingerprint`].
    pub fingerprint_digits: u32,
    /// Maximum cached regions; `None` (the batch layer's setting) never
    /// evicts. A bound of 0 is clamped to 1.
    pub capacity: Option<usize>,
    /// Kernel backend the blocked membership scan runs on (see
    /// [`openapi_linalg::kernel`]). Backends are bit-identical by
    /// contract; the default is the blocked implementation.
    pub backend: Arc<dyn Backend>,
}

impl Default for RegionCacheConfig {
    fn default() -> Self {
        RegionCacheConfig {
            membership_rtol: crate::openapi::OpenApiConfig::default().rtol,
            fingerprint_digits: 6,
            capacity: None,
            backend: default_backend(),
        }
    }
}

/// A served cache entry: the canonical interpretation of one region.
///
/// The interpretation is shared, not owned: a hit clones an [`Arc`] (one
/// reference-count bump), never the multi-KB parameter payload — at
/// `d = 196` a deep clone used to cost several KB of allocation per hit,
/// which is exactly the traffic a hot cache serves most.
#[derive(Debug, Clone)]
pub struct CachedRegion {
    /// Canonical key of the region.
    pub fingerprint: RegionFingerprint,
    /// The interpretation every member instance of the region shares.
    pub interpretation: Arc<Interpretation>,
}

/// A borrowed probe for [`RegionCache::lookup_probe_batch`]: one instance,
/// its observed prediction, and the explained class.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRef<'a> {
    /// The probed instance.
    pub x: &'a Vector,
    /// The model's predicted probability vector at `x`.
    pub probs: &'a [f64],
    /// The class whose regions are scanned.
    pub class: usize,
}

/// Where a slot's boundary rows live inside the packed blocks.
#[derive(Debug, Clone, Copy)]
struct BlockRef {
    class: usize,
    dim: usize,
    group: usize,
}

/// One cached region plus its CLOCK reference flag.
#[derive(Debug)]
struct Slot {
    fingerprint: RegionFingerprint,
    interpretation: Arc<Interpretation>,
    /// Second-chance bit: set by lookups (under `&self`), cleared by the
    /// sweeping clock hand. Relaxed ordering suffices — the flag is a usage
    /// hint, not a synchronization point.
    referenced: AtomicBool,
    /// The slot's group in its `(class, dim)` block, when it has one
    /// (entries with no contrasts or ragged dimensions explain no probe
    /// and are not packed).
    block: Option<BlockRef>,
}

/// One region's contiguous run of rows inside a [`ClassBlock`].
#[derive(Debug, Clone, Copy)]
struct Group {
    /// First row of the group in the block's pack.
    start: usize,
    /// Rows (pairwise contrasts) in the group.
    len: usize,
    /// The `entries` index served when the group's verdict passes.
    slot: usize,
}

/// The packed boundary rows of every cached region of one `(class, dim)`
/// pair: `w` holds the contrast weight rows back to back, `bias` and
/// `c_prime` are parallel per-row arrays, and `groups` partitions the rows
/// by region in scan order.
#[derive(Debug)]
struct ClassBlock {
    w: RowMatrix,
    bias: Vec<f64>,
    c_prime: Vec<usize>,
    groups: Vec<Group>,
}

impl ClassBlock {
    fn new(dim: usize) -> Self {
        ClassBlock {
            w: RowMatrix::new(dim),
            bias: Vec::new(),
            c_prime: Vec::new(),
            groups: Vec::new(),
        }
    }
}

/// Reusable per-thread buffers of the kernel passes, so `lookup_probe`
/// stays `&self` and allocation-free on the warm path.
#[derive(Debug, Default)]
struct Scratch {
    ln_probs: Vec<f64>,
    y: Vec<f64>,
    targets: Vec<f64>,
    groups: Vec<RowGroup>,
    verdicts: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Memoizes `ln(max(p, MIN_POSITIVE))` per class — the scan recombines
/// these by subtraction, bit-identical to
/// [`openapi_api::probability::log_ratio`] but costing one `ln` per class
/// instead of one per cached region.
fn fill_ln(out: &mut Vec<f64>, probs: &[f64]) {
    out.clear();
    out.extend(probs.iter().map(|&p| p.max(f64::MIN_POSITIVE).ln()));
}

/// The region cache (see the module docs).
#[derive(Debug, Default)]
pub struct RegionCache {
    config: RegionCacheConfig,
    /// Cached regions in insertion order (until eviction reorders via
    /// `swap_remove`).
    entries: Vec<Slot>,
    /// Packed boundary rows per `(class, dim)`; the membership scan walks
    /// these, in group (registration) order.
    blocks: HashMap<(usize, usize), ClassBlock>,
    /// `(class, fingerprint) → entries index` — merges duplicate solves.
    by_fingerprint: HashMap<(usize, RegionFingerprint), usize>,
    /// `(class, oracle region id) → entries index` — oracle fast path only.
    by_region_id: HashMap<(usize, RegionId), usize>,
    /// CLOCK hand: next eviction candidate.
    hand: usize,
    evictions: u64,
}

impl RegionCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: RegionCacheConfig) -> Self {
        RegionCache {
            config,
            ..RegionCache::default()
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &RegionCacheConfig {
        &self.config
    }

    /// Number of distinct regions currently cached (all classes).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no regions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries cached for one class.
    pub fn class_len(&self, class: usize) -> usize {
        self.entries
            .iter()
            .filter(|e| e.interpretation.class == class)
            .count()
    }

    /// Regions evicted over the cache's lifetime (0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every cached region (the eviction count is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.blocks.clear();
        self.by_fingerprint.clear();
        self.by_region_id.clear();
        self.hand = 0;
    }

    /// Black-box membership lookup: the first cached region of `class`
    /// whose core parameters explain the prediction `probs` observed at
    /// `x` (Theorem 2 — see [`Interpretation::explains_probe`]), found by
    /// one blocked kernel pass per `CHUNK_ROWS` packed boundaries
    /// instead of a per-entry scan.
    pub fn lookup_probe(&self, x: &Vector, probs: &[f64], class: usize) -> Option<CachedRegion> {
        if x.is_empty() {
            // Zero-dimensional probes cannot be packed (a RowMatrix has at
            // least one column); fall back to the reference entry scan.
            let rtol = self.config.membership_rtol;
            return self
                .entries
                .iter()
                .filter(|e| e.interpretation.class == class)
                .find(|e| e.interpretation.explains_probe(x, probs, rtol))
                .map(|e| {
                    // ordering: Relaxed — a CLOCK reference bit, read and
                    // cleared only by `evict_one`, which runs under the
                    // owner's exclusive borrow; no data is published.
                    e.referenced.store(true, Ordering::Relaxed);
                    CachedRegion {
                        fingerprint: e.fingerprint,
                        interpretation: Arc::clone(&e.interpretation),
                    }
                });
        }
        let block = self.blocks.get(&(class, x.len()))?;
        SCRATCH
            .with(|scratch| {
                let s = &mut *scratch.borrow_mut();
                fill_ln(&mut s.ln_probs, probs);
                self.scan_block(block, x.as_slice(), class, s)
            })
            .map(|slot| self.serve(slot))
    }

    /// Batched black-box lookup: resolves every probe whose `results` slot
    /// is `None`, writing hits in place (slots already `Some` are skipped,
    /// so callers can pre-resolve). Verdict-equivalent to calling
    /// [`RegionCache::lookup_probe`] per probe, but iterates chunk-outer /
    /// probe-inner so a whole batch walks each packed chunk while it is
    /// hot in cache — the warm path of a wire batch costs one blocked pass
    /// over the class's boundaries, not N sequential scans.
    ///
    /// # Panics
    /// When `probes.len() != results.len()`.
    pub fn lookup_probe_batch(
        &self,
        probes: &[ProbeRef<'_>],
        results: &mut [Option<CachedRegion>],
    ) {
        assert_eq!(probes.len(), results.len(), "probes/results must align");
        let mut by_key: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (i, p) in probes.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            if p.x.is_empty() {
                results[i] = self.lookup_probe(p.x, p.probs, p.class);
            } else {
                by_key.entry((p.class, p.x.len())).or_default().push(i);
            }
        }
        for ((class, dim), idxs) in by_key {
            let Some(block) = self.blocks.get(&(class, dim)) else {
                continue;
            };
            // Per-probe ln memo, computed once for the whole scan.
            let memos: Vec<Vec<f64>> = idxs
                .iter()
                .map(|&i| {
                    let mut ln = Vec::new();
                    fill_ln(&mut ln, probes[i].probs);
                    ln
                })
                .collect();
            let mut unresolved: Vec<usize> = (0..idxs.len()).collect();
            let mut g = 0;
            while g < block.groups.len() && !unresolved.is_empty() {
                let (g_end, row0, row_end) = chunk_bounds(block, g);
                SCRATCH.with(|scratch| {
                    let s = &mut *scratch.borrow_mut();
                    s.groups.clear();
                    for grp in &block.groups[g..g_end] {
                        s.groups.push(RowGroup {
                            start: grp.start - row0,
                            len: grp.len,
                        });
                    }
                    // One multi-probe kernel pass evaluates the chunk for
                    // every still-unresolved probe (probe-major output),
                    // then the per-probe verdict halves run off the shared
                    // evaluation. Bit-identical to per-probe scans by the
                    // `boundary_eval_batch` contract.
                    let xs: Vec<&[f64]> = unresolved
                        .iter()
                        .map(|&u| probes[idxs[u]].x.as_slice())
                        .collect();
                    let backend = &*self.config.backend;
                    let mut y = std::mem::take(&mut s.y);
                    backend.boundary_eval_batch(&block.w, &block.bias, &xs, row0..row_end, &mut y);
                    let n = row_end - row0;
                    // One multi-probe kernel pass; payload = total row
                    // evaluations (rows × still-unresolved probes).
                    openapi_trace::emit(openapi_trace::Stage::KernelPass, (n * xs.len()) as u64);
                    let mut p = 0;
                    unresolved.retain(|&u| {
                        let yp = &y[p * n..(p + 1) * n];
                        p += 1;
                        match self.verdict_scan(block, yp, class, &memos[u], (g, row0, row_end), s)
                        {
                            Some(slot) => {
                                results[idxs[u]] = Some(self.serve(slot));
                                false
                            }
                            None => true,
                        }
                    });
                    s.y = y;
                });
                g = g_end;
            }
        }
    }

    /// Scans one block chunk by chunk, returning the first slot whose group
    /// verdict passes.
    fn scan_block(
        &self,
        block: &ClassBlock,
        x: &[f64],
        class: usize,
        s: &mut Scratch,
    ) -> Option<usize> {
        let mut g = 0;
        while g < block.groups.len() {
            let (g_end, row0, row_end) = chunk_bounds(block, g);
            s.groups.clear();
            for grp in &block.groups[g..g_end] {
                s.groups.push(RowGroup {
                    start: grp.start - row0,
                    len: grp.len,
                });
            }
            // The ln memo doubles as the target source; take it out to
            // satisfy the borrow checker, then restore.
            let ln_probs = std::mem::take(&mut s.ln_probs);
            let hit = self.scan_chunk(block, x, class, &ln_probs, (g, row0, row_end), s);
            s.ln_probs = ln_probs;
            // One blocked kernel pass done; payload = boundary rows
            // evaluated. Attributes to the calling request's span (if the
            // serving tier set one on this thread).
            openapi_trace::emit(openapi_trace::Stage::KernelPass, (row_end - row0) as u64);
            if hit.is_some() {
                return hit;
            }
            g = g_end;
        }
        None
    }

    /// One kernel pass over the chunk `[row0, row_end)` whose groups start
    /// at index `g` (with `s.groups` pre-filled relative to `row0`):
    /// boundary evaluation, target reconstruction from the ln memo, and
    /// per-group verdicts. Returns the slot of the first passing group.
    fn scan_chunk(
        &self,
        block: &ClassBlock,
        x: &[f64],
        class: usize,
        ln_probs: &[f64],
        (g, row0, row_end): (usize, usize, usize),
        s: &mut Scratch,
    ) -> Option<usize> {
        let backend = &*self.config.backend;
        backend.boundary_eval(&block.w, &block.bias, x, row0..row_end, &mut s.y);
        let y = std::mem::take(&mut s.y);
        let hit = self.verdict_scan(block, &y, class, ln_probs, (g, row0, row_end), s);
        s.y = y;
        hit
    }

    /// The verdict half of a chunk scan: given one probe's already
    /// evaluated boundary values `y` for `[row0, row_end)`, reconstructs
    /// the probe's targets from its ln memo and returns the slot of the
    /// first passing group. Split from [`RegionCache::scan_chunk`] so the
    /// batched lookup can share a single multi-probe evaluation.
    fn verdict_scan(
        &self,
        block: &ClassBlock,
        y: &[f64],
        class: usize,
        ln_probs: &[f64],
        (g, row0, row_end): (usize, usize, usize),
        s: &mut Scratch,
    ) -> Option<usize> {
        let backend = &*self.config.backend;
        let class_ln = ln_probs.get(class).copied();
        s.targets.clear();
        s.targets
            .extend(block.c_prime[row0..row_end].iter().map(|&cp| {
                match (class_ln, ln_probs.get(cp)) {
                    // Identical recombination to `log_ratio(probs, class, cp)`.
                    (Some(lc), Some(&lcp)) => lc - lcp,
                    // Out-of-range class/contrast can never be explained:
                    // NaN fails every comparison, exactly like the scalar
                    // path's early `false`.
                    _ => f64::NAN,
                }
            }));
        backend.membership_verdicts(
            y,
            &s.targets,
            self.config.membership_rtol,
            &s.groups,
            &mut s.verdicts,
        );
        s.verdicts
            .iter()
            .position(|&v| v)
            .map(|hit| block.groups[g + hit].slot)
    }

    /// Marks a slot referenced and serves it.
    fn serve(&self, slot: usize) -> CachedRegion {
        let e = &self.entries[slot];
        // ordering: Relaxed — CLOCK reference bit (see `lookup_probe`).
        e.referenced.store(true, Ordering::Relaxed);
        CachedRegion {
            fingerprint: e.fingerprint,
            interpretation: Arc::clone(&e.interpretation),
        }
    }

    /// Oracle fast-path lookup keyed on [`RegionId`].
    pub fn lookup_region(&self, class: usize, region: &RegionId) -> Option<CachedRegion> {
        let &index = self.by_region_id.get(&(class, region.clone()))?;
        Some(self.serve(index))
    }

    /// Admits a freshly solved region, merging with an existing entry when
    /// the canonical fingerprint already exists AND the recovered parameters
    /// actually agree (so equal-region solves stay bit-identical, while a
    /// fingerprint collision between genuinely different regions —
    /// quantization landing both in one grid cell, or a 64-bit hash
    /// collision — falls back to a separate entry instead of silently
    /// serving the wrong region's parameters). Returns the entry that ends
    /// up cached, which is what every caller must serve.
    ///
    /// Takes the interpretation as an [`Arc`] so an entry recovered from a
    /// durable store (or another cache tier) is admitted without copying
    /// its parameters; freshly solved regions wrap once at the call site.
    pub fn insert(
        &mut self,
        interpretation: Arc<Interpretation>,
        region: Option<RegionId>,
    ) -> CachedRegion {
        let class = interpretation.class;
        let fingerprint = interpretation.fingerprint(self.config.fingerprint_digits);
        let tol = self.config.membership_rtol;
        let index = match self.by_fingerprint.get(&(class, fingerprint)) {
            Some(&i)
                if interpretations_agree(&self.entries[i].interpretation, &interpretation, tol) =>
            {
                i
            }
            Some(_) => {
                // Collision: cache the new region un-indexed (the membership
                // scan still serves it; only the fingerprint shortcut is
                // unavailable for it).
                self.push_slot(fingerprint, interpretation)
            }
            None => {
                let i = self.push_slot(fingerprint, interpretation);
                self.by_fingerprint.insert((class, fingerprint), i);
                i
            }
        };
        if let Some(region) = region {
            self.by_region_id.insert((class, region), index);
        }
        let entry = &self.entries[index];
        CachedRegion {
            fingerprint: entry.fingerprint,
            interpretation: Arc::clone(&entry.interpretation),
        }
    }

    /// Pushes a new slot, evicting first when at capacity, and packs its
    /// boundary rows into the `(class, dim)` block. The fresh entry starts
    /// referenced so it survives at least one full clock sweep.
    fn push_slot(
        &mut self,
        fingerprint: RegionFingerprint,
        interpretation: Arc<Interpretation>,
    ) -> usize {
        if let Some(capacity) = self.config.capacity {
            let capacity = capacity.max(1);
            while self.entries.len() >= capacity {
                self.evict_one();
            }
        }
        self.entries.push(Slot {
            fingerprint,
            interpretation,
            referenced: AtomicBool::new(true),
            block: None,
        });
        let index = self.entries.len() - 1;
        self.register_slot(index);
        index
    }

    /// Packs `entries[index]`'s boundary rows into its class block. Slots
    /// whose contrasts are absent or dimensionally ragged explain no probe
    /// (the scalar semantics' dot product fails) and stay unpacked.
    fn register_slot(&mut self, index: usize) {
        let interp = &self.entries[index].interpretation;
        let Some(first) = interp.pairwise.first() else {
            return;
        };
        let dim = first.weights.len();
        if dim == 0 || interp.pairwise.iter().any(|p| p.weights.len() != dim) {
            return;
        }
        let class = interp.class;
        let block = self
            .blocks
            .entry((class, dim))
            .or_insert_with(|| ClassBlock::new(dim));
        let start = block.w.rows();
        for p in &interp.pairwise {
            block.w.push_row(p.weights.as_slice());
            block.bias.push(p.bias);
            block.c_prime.push(p.c_prime);
        }
        let group = block.groups.len();
        block.groups.push(Group {
            start,
            len: interp.pairwise.len(),
            slot: index,
        });
        self.entries[index].block = Some(BlockRef { class, dim, group });
    }

    /// Unpacks a slot's rows from its block: the row range is drained
    /// (later rows shift down, preserving scan order), later groups'
    /// offsets and their slots' back-references are repaired, and an
    /// emptied block is dropped.
    fn unregister_slot(&mut self, bref: BlockRef) {
        let block = self
            .blocks
            .get_mut(&(bref.class, bref.dim))
            .expect("slot block ref points at a live block");
        let g = block.groups[bref.group];
        block.w.remove_rows(g.start..g.start + g.len);
        block.bias.drain(g.start..g.start + g.len);
        block.c_prime.drain(g.start..g.start + g.len);
        block.groups.remove(bref.group);
        for grp in &mut block.groups[bref.group..] {
            grp.start -= g.len;
            let back = self.entries[grp.slot]
                .block
                .as_mut()
                .expect("packed slot keeps its block ref");
            back.group -= 1;
        }
        if block.groups.is_empty() {
            self.blocks.remove(&(bref.class, bref.dim));
        }
    }

    /// CLOCK sweep: clears reference bits until an unreferenced victim is
    /// found, then removes it. Terminates within two passes — the first
    /// sweep clears every bit it crosses.
    fn evict_one(&mut self) {
        debug_assert!(!self.entries.is_empty());
        loop {
            if self.hand >= self.entries.len() {
                self.hand = 0;
            }
            let referenced = &self.entries[self.hand].referenced;
            // ordering: Relaxed — the bit only steers eviction; `&mut
            // self` already excludes concurrent markers.
            if referenced.swap(false, Ordering::Relaxed) {
                self.hand += 1;
            } else {
                let victim = self.hand;
                self.remove_slot(victim);
                self.evictions += 1;
                return;
            }
        }
    }

    /// Drops every cached entry of `class` keyed by `fingerprint` —
    /// collision-fallback entries included, which is why this scans
    /// instead of consulting `by_fingerprint` alone. The drift detector's
    /// cache half: a region the hidden model no longer explains is removed
    /// here (and tombstoned in the durable store by the serving tier).
    /// Returns the number of entries removed; removals do not count as
    /// capacity evictions.
    pub fn evict_fingerprint(&mut self, class: usize, fingerprint: RegionFingerprint) -> usize {
        let mut removed = 0;
        while let Some(index) = self
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint && e.interpretation.class == class)
        {
            self.remove_slot(index);
            removed += 1;
        }
        removed
    }

    /// Removes the slot at `index` via `swap_remove`, repairing both index
    /// maps (entries pointing at the victim vanish, entries pointing at the
    /// moved last slot are redirected) and the packed blocks (the victim's
    /// rows are unpacked; the moved slot's group follows it).
    fn remove_slot(&mut self, index: usize) {
        if let Some(bref) = self.entries[index].block {
            self.unregister_slot(bref);
        }
        let last = self.entries.len() - 1;
        self.entries.swap_remove(index);
        if index < self.entries.len() {
            if let Some(bref) = self.entries[index].block {
                self.blocks
                    .get_mut(&(bref.class, bref.dim))
                    .expect("moved slot's block ref points at a live block")
                    .groups[bref.group]
                    .slot = index;
            }
        }
        self.by_fingerprint.retain(|_, v| {
            if *v == index {
                return false;
            }
            if *v == last {
                *v = index;
            }
            true
        });
        self.by_region_id.retain(|_, v| {
            if *v == index {
                return false;
            }
            if *v == last {
                *v = index;
            }
            true
        });
    }
}

/// The chunk of whole groups starting at group `g`: extends until at
/// least [`CHUNK_ROWS`] rows are covered (groups are never split, so a
/// region's verdict is always decided within one pass). Returns
/// `(end_group, first_row, end_row)`.
fn chunk_bounds(block: &ClassBlock, g: usize) -> (usize, usize, usize) {
    let row0 = block.groups[g].start;
    let mut g_end = g;
    let mut row_end = row0;
    while g_end < block.groups.len() && row_end - row0 < CHUNK_ROWS {
        row_end += block.groups[g_end].len;
        g_end += 1;
    }
    (g_end, row0, row_end)
}

/// Whether two interpretations recovered the same region's parameters, up
/// to solver round-off: same class, same contrast order, and every weight
/// and bias within `tol` (relative). Used to distinguish "same region,
/// independently re-solved" (merge) from a fingerprint collision (keep
/// both). Public so other region-keyed tiers (the durable store in
/// `openapi-store`) apply the identical merge criterion.
pub fn interpretations_agree(a: &Interpretation, b: &Interpretation, tol: f64) -> bool {
    a.class == b.class
        && a.pairwise.len() == b.pairwise.len()
        && a.pairwise.iter().zip(&b.pairwise).all(|(p, q)| {
            p.c_prime == q.c_prime
                && (p.bias - q.bias).abs() <= tol * p.bias.abs().max(1.0)
                && p.weights.len() == q.weights.len()
                && p.weights
                    .iter()
                    .zip(q.weights.iter())
                    .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::PairwiseCoreParams;

    /// A synthetic one-contrast interpretation whose single weight encodes
    /// a distinct region identity.
    fn interp(class: usize, w: f64) -> Arc<Interpretation> {
        Arc::new(
            Interpretation::from_pairwise(
                class,
                vec![PairwiseCoreParams {
                    c_prime: class + 1,
                    weights: Vector(vec![w]),
                    bias: 0.0,
                }],
            )
            .unwrap(),
        )
    }

    /// A probe consistent with `interp(class, w)` at `x` (two-class
    /// sigmoid whose log-ratio matches `w·x`).
    fn consistent_probs(i: &Interpretation, x: &Vector) -> Vec<f64> {
        let p = &i.pairwise[0];
        let target = p.weights.dot(x).unwrap() + p.bias;
        let r = target.exp();
        let denom = 1.0 + r;
        let mut probs = vec![0.0; p.c_prime + 1];
        probs[i.class] = r / denom;
        probs[p.c_prime] = 1.0 / denom;
        probs
    }

    /// Region groups packed for `(class, dim)`.
    fn packed_groups(cache: &RegionCache, class: usize, dim: usize) -> usize {
        cache
            .blocks
            .get(&(class, dim))
            .map_or(0, |b| b.groups.len())
    }

    fn bounded(capacity: usize) -> RegionCache {
        RegionCache::new(RegionCacheConfig {
            capacity: Some(capacity),
            ..RegionCacheConfig::default()
        })
    }

    #[test]
    fn unbounded_cache_never_evicts_and_preserves_order() {
        let mut cache = RegionCache::default();
        for i in 0..100 {
            cache.insert(interp(0, i as f64), None);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.evictions(), 0);
        let firsts: Vec<f64> = cache
            .entries
            .iter()
            .map(|e| e.interpretation.pairwise[0].weights[0])
            .collect();
        assert_eq!(firsts, (0..100).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_bound_is_enforced_by_clock_eviction() {
        let mut cache = bounded(4);
        for i in 0..20 {
            cache.insert(interp(0, i as f64), Some(RegionId::from_index(i)));
            assert!(cache.len() <= 4, "capacity bound violated at insert {i}");
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions(), 16);
    }

    #[test]
    fn recently_looked_up_entries_survive_the_sweep() {
        let mut cache = bounded(3);
        for i in 0..3 {
            cache.insert(interp(0, i as f64), Some(RegionId::from_index(i)));
        }
        // Sweep once so every slot's initial reference bit is cleared.
        cache.insert(interp(0, 100.0), Some(RegionId::from_index(100)));
        // Touch region 100; the next insert must evict something else.
        assert!(cache.lookup_region(0, &RegionId::from_index(100)).is_some());
        cache.insert(interp(0, 101.0), Some(RegionId::from_index(101)));
        assert!(
            cache.lookup_region(0, &RegionId::from_index(100)).is_some(),
            "referenced entry must get a second chance"
        );
    }

    #[test]
    fn eviction_repairs_the_index_maps() {
        let mut cache = bounded(2);
        cache.insert(interp(0, 1.0), Some(RegionId::from_index(1)));
        cache.insert(interp(0, 2.0), Some(RegionId::from_index(2)));
        // Force evictions and verify every surviving oracle key still
        // resolves to the entry carrying its own parameters.
        for i in 3..40 {
            cache.insert(interp(0, i as f64), Some(RegionId::from_index(i)));
            for j in 1..=i {
                if let Some(hit) = cache.lookup_region(0, &RegionId::from_index(j)) {
                    assert_eq!(
                        hit.interpretation.pairwise[0].weights[0], j as f64,
                        "oracle key {j} resolved to the wrong entry"
                    );
                }
            }
        }
    }

    #[test]
    fn eviction_keeps_the_packed_scan_serving_the_right_regions() {
        let mut cache = bounded(8);
        let x = Vector(vec![0.4]);
        for i in 0..50 {
            cache.insert(interp(0, i as f64 + 0.5), None);
            // Every probe that hits must return exactly its own region —
            // the packed blocks track every eviction and swap.
            for j in 0..=i {
                let target = interp(0, j as f64 + 0.5);
                let probs = consistent_probs(&target, &x);
                if let Some(hit) = cache.lookup_probe(&x, &probs, 0) {
                    assert_eq!(hit.interpretation, target, "probe {j} after insert {i}");
                }
            }
        }
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn evict_fingerprint_forgets_exactly_the_named_region() {
        let mut cache = RegionCache::default();
        let x = Vector(vec![0.4]);
        let victim = interp(0, 3.0);
        let fingerprint = victim.fingerprint(6);
        for i in 0..8 {
            cache.insert(interp(0, i as f64), Some(RegionId::from_index(i)));
        }
        assert_eq!(cache.evict_fingerprint(0, fingerprint), 1);
        assert_eq!(cache.len(), 7);
        // Invalidation is not a capacity eviction.
        assert_eq!(cache.evictions(), 0);
        // The victim no longer serves; every survivor still serves its own
        // exact parameters through the repaired packed blocks and maps.
        let probs = consistent_probs(&victim, &x);
        assert!(cache.lookup_probe(&x, &probs, 0).is_none());
        assert!(cache.lookup_region(0, &RegionId::from_index(3)).is_none());
        for j in (0..8).filter(|&j| j != 3) {
            let target = interp(0, j as f64);
            let probs = consistent_probs(&target, &x);
            let hit = cache.lookup_probe(&x, &probs, 0).expect("survivor serves");
            assert_eq!(hit.interpretation, target);
        }
        // Idempotent: the region is already gone.
        assert_eq!(cache.evict_fingerprint(0, fingerprint), 0);
        // Class-scoped: another class's entry under the same fingerprint
        // value is untouched.
        cache.insert(interp(1, 3.0), None);
        let other = interp(1, 3.0).fingerprint(6);
        assert_eq!(cache.evict_fingerprint(0, other), 0);
    }

    #[test]
    fn probe_lookup_hits_through_the_packed_scan() {
        let mut cache = RegionCache::default();
        let x = Vector(vec![-0.3]);
        for i in 0..30 {
            cache.insert(interp(0, i as f64 + 0.25), None);
        }
        let target = interp(0, 17.25);
        let probs = consistent_probs(&target, &x);
        let hit = cache.lookup_probe(&x, &probs, 0).expect("region cached");
        assert_eq!(hit.interpretation, target);
        // A probe nothing explains, and a class with no block, both miss.
        assert!(cache.lookup_probe(&x, &[0.4, 0.6], 0).is_none());
        assert!(cache.lookup_probe(&x, &probs, 5).is_none());
    }

    #[test]
    fn batched_lookup_matches_per_probe_lookup() {
        let mut cache = RegionCache::default();
        let xs: Vec<Vector> = (0..6).map(|i| Vector(vec![0.1 * i as f64 - 0.2])).collect();
        for i in 0..200 {
            cache.insert(interp(0, i as f64 + 0.5), None);
        }
        let targets: Vec<_> = [3usize, 60, 199, 123, 0, 77]
            .iter()
            .map(|&i| interp(0, i as f64 + 0.5))
            .collect();
        let probs: Vec<Vec<f64>> = targets
            .iter()
            .zip(&xs)
            .map(|(t, x)| consistent_probs(t, x))
            .collect();
        let probes: Vec<ProbeRef> = xs
            .iter()
            .zip(&probs)
            .map(|(x, p)| ProbeRef {
                x,
                probs: p,
                class: 0,
            })
            .collect();
        let mut results = vec![None; probes.len()];
        // Pre-resolved slots must be left alone.
        results[4] = cache.lookup_probe(&xs[4], &probs[4], 0);
        cache.lookup_probe_batch(&probes, &mut results);
        for (i, r) in results.iter().enumerate() {
            let single = cache.lookup_probe(&xs[i], &probs[i], 0).unwrap();
            let batched = r.as_ref().expect("batched lookup must hit");
            assert_eq!(batched.interpretation, single.interpretation, "probe {i}");
        }
    }

    #[test]
    fn duplicate_solves_merge_to_the_first_entry() {
        let mut cache = RegionCache::default();
        let a = cache.insert(interp(0, 5.0), None);
        let b = cache.insert(interp(0, 5.0), None);
        assert_eq!(cache.len(), 1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.interpretation, b.interpretation);
        // The merge left exactly one packed group behind.
        assert_eq!(packed_groups(&cache, 0, 1), 1);
    }

    #[test]
    fn classes_are_disjoint() {
        let mut cache = RegionCache::default();
        cache.insert(interp(0, 1.0), None);
        cache.insert(interp(1, 1.0), None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.class_len(0), 1);
        assert_eq!(cache.class_len(1), 1);
    }

    #[test]
    fn clear_empties_but_keeps_eviction_count() {
        let mut cache = bounded(2);
        for i in 0..5 {
            cache.insert(interp(0, i as f64), None);
        }
        let evicted = cache.evictions();
        assert!(evicted > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), evicted);
        assert_eq!(packed_groups(&cache, 0, 1), 0);
        assert!(cache.lookup_region(0, &RegionId::from_index(0)).is_none());
    }
}
