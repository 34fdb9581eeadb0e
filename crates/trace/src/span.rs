//! Request spans: the ids that tie a request's trace events together.
//!
//! A [`RequestSpan`] is minted at frame decode (`openapi-net::server`) or
//! at `submit` for in-process callers, carried on the job through the
//! serving path, and stamped onto every event the request emits. Layers
//! that cannot thread the handle explicitly (the kernel probe path in
//! `openapi-core`, the WAL in `openapi-store`) emit against the
//! *thread-current* span, installed with [`enter`] for the duration of a
//! job.
//!
//! With the runtime switch off ([`crate::set_runtime_enabled`]) new spans
//! are id 0 and nothing reaches the ring.

use crate::clock;
use crate::event::{Stage, TraceEvent};
use openapi_sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;

/// Span id allocator. Ids start at 1; 0 is the detached/process span.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// A handle naming one request's span: its id and its parent's id
/// (0 = root). Copyable and two words wide, so jobs carry it by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSpan {
    id: u64,
    parent: u64,
}

impl RequestSpan {
    /// Mints a fresh root span and emits its [`Stage::Begin`] event.
    /// With tracing disabled, returns the detached span (id 0) for free.
    pub fn root() -> RequestSpan {
        RequestSpan::mint(0)
    }

    /// Mints a child of this span (batch items parent on the frame span)
    /// and emits its [`Stage::Begin`] event.
    pub fn child(&self) -> RequestSpan {
        RequestSpan::mint(self.id)
    }

    fn mint(parent: u64) -> RequestSpan {
        if !crate::enabled() {
            return RequestSpan::detached();
        }
        // ordering: Relaxed — a pure id allocator; uniqueness comes from
        // the RMW, and no other memory is published through it.
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let span = RequestSpan { id, parent };
        span.event(Stage::Begin, parent);
        span
    }

    /// The detached process span (id 0): events that belong to no single
    /// request, like store fsync batches.
    pub const fn detached() -> RequestSpan {
        RequestSpan { id: 0, parent: 0 }
    }

    /// Reconstructs a span handle from a bare id (parent unknown), for
    /// layers that only receive the id over a channel or the wire — the
    /// reply writer, chiefly. Events emitted through it are root-parented.
    pub const fn from_id(id: u64) -> RequestSpan {
        RequestSpan { id, parent: 0 }
    }

    /// This span's id (0 when tracing is disabled or detached).
    pub const fn id(&self) -> u64 {
        self.id
    }

    /// The parent span's id (0 for roots).
    pub const fn parent(&self) -> u64 {
        self.parent
    }

    /// Emits one event on this span into the global ring. No-op when
    /// tracing is disabled at runtime.
    pub fn event(&self, stage: Stage, payload: u64) {
        if !crate::enabled() {
            return;
        }
        crate::ring_push(&TraceEvent {
            span: self.id,
            parent: self.parent,
            stage,
            t_nanos: clock::nanos(),
            payload,
        });
    }

    /// Like [`event`](Self::event), but stamps the event with an instant
    /// the caller already read through [`crate::clock::now`] — stage
    /// timers end with a clock read in hand, and reusing it keeps the
    /// traced hot path one clock read per measurement instead of two.
    pub fn event_at(&self, stage: Stage, payload: u64, at: std::time::Instant) {
        if !crate::enabled() {
            return;
        }
        crate::ring_push(&TraceEvent {
            span: self.id,
            parent: self.parent,
            stage,
            t_nanos: clock::nanos_at(at),
            payload,
        });
    }
}

thread_local! {
    /// The thread-current (span, parent) pair, for layers that cannot
    /// thread a handle. (0, 0) = detached.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Installs `span` as the thread-current span until the returned guard
/// drops (restoring the previous one — guards nest).
pub fn enter(span: RequestSpan) -> SpanGuard {
    let prev = CURRENT.with(|c| c.replace((span.id, span.parent)));
    SpanGuard { prev }
}

/// The thread-current span ([`RequestSpan::detached`] when none is set).
pub fn current() -> RequestSpan {
    let (id, parent) = CURRENT.with(Cell::get);
    RequestSpan { id, parent }
}

/// Emits one event on the thread-current span — the entry point for
/// layers below the job plumbing (kernel passes, WAL appends).
#[inline]
pub fn emit(stage: Stage, payload: u64) {
    if crate::enabled() {
        current().event(stage, payload);
    }
}

/// Restores the previous thread-current span on drop (see [`enter`]).
#[must_use = "dropping the guard immediately uninstalls the span"]
pub struct SpanGuard {
    prev: (u64, u64),
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard").finish_non_exhaustive()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_restore() {
        assert_eq!(current(), RequestSpan::detached());
        let outer = RequestSpan::root();
        let inner = outer.child();
        {
            let _g1 = enter(outer);
            assert_eq!(current().id(), outer.id());
            {
                let _g2 = enter(inner);
                assert_eq!(current().id(), inner.id());
            }
            assert_eq!(current().id(), outer.id());
        }
        assert_eq!(current(), RequestSpan::detached());
    }

    #[test]
    fn children_parent_on_their_root() {
        let root = RequestSpan::root();
        let child = root.child();
        assert_ne!(root.id(), 0);
        assert_ne!(child.id(), root.id());
        assert_eq!(child.parent(), root.id());
        assert_eq!(root.parent(), 0);
    }
}
