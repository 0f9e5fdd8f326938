//! Hierarchical spans over simulated and wall-clock time.
//!
//! A [`Trace`] collects spans for one logical activity (a query, a
//! figure run, an attestation round-trip). Install it on the current
//! thread with [`Trace::install`]; while the guard lives,
//! [`Span::enter`] opens nested scopes:
//!
//! ```
//! use ironsafe_obs::span::{add_sim_ns, Span, Trace};
//!
//! let trace = Trace::new();
//! {
//!     let _g = trace.install();
//!     let _q = Span::enter("query/q1");
//!     {
//!         let _s = Span::enter("scan/lineitem");
//!         add_sim_ns("ndp", 1_500.0);
//!     }
//! }
//! let snap = trace.snapshot();
//! assert_eq!(snap.sim_total_ns(), 1_500.0);
//! ```
//!
//! Wall-clock nanoseconds are recorded automatically for every span;
//! simulated nanoseconds are attributed explicitly via [`add_sim_ns`]
//! (or [`Span::add_sim_ns`]) tagged with a category such as `"ndp"`,
//! `"freshness"`, `"crypto"`, `"transitions"`, `"epc"` or `"other"` —
//! the same axes as the paper's cost breakdown. Simulated time forms a
//! single monotone timeline per trace: each attribution advances the
//! trace's simulated cursor, which gives every span a simulated start
//! offset usable for Chrome trace export.
//!
//! **No-trace behaviour:** with no trace installed, `Span::enter`
//! returns a disarmed guard and all recording calls are no-ops that
//! perform no heap allocation (verified by `tests/zero_alloc.rs`).

use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

/// Causal identity threaded through a request: which query a span
/// belongs to, and — as execution descends — which morsel and which
/// page batch. Layers refine the context (`serve`/`csa` set the query
/// id, morsel workers add the morsel id, the secure pager adds the
/// page-batch id), so every span in one request stitches into a single
/// query-keyed tree in the Chrome trace export.
///
/// The context is a per-thread `Copy` value: installing and reading it
/// never allocates, so the disarmed (no-trace) hot path stays free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Identifier of the query this work belongs to.
    pub query_id: u64,
    /// Morsel being executed, when inside a morsel worker.
    pub morsel_id: Option<u64>,
    /// Page batch being read, when inside a pager batch read.
    pub page_batch_id: Option<u64>,
}

impl TraceCtx {
    /// A fresh context rooted at `query_id`.
    pub fn query(query_id: u64) -> TraceCtx {
        TraceCtx { query_id, morsel_id: None, page_batch_id: None }
    }

    /// Refine with the morsel being executed.
    pub fn with_morsel(mut self, morsel_id: u64) -> TraceCtx {
        self.morsel_id = Some(morsel_id);
        self
    }

    /// Refine with the page batch being read.
    pub fn with_page_batch(mut self, page_batch_id: u64) -> TraceCtx {
        self.page_batch_id = Some(page_batch_id);
        self
    }

    /// Make this context current for the thread until the guard drops;
    /// the previous context (if any) is restored. Spans entered while
    /// the guard lives record this context.
    pub fn install(self) -> CtxGuard {
        let previous = CURRENT_CTX.with(|c| c.replace(Some(self)));
        CtxGuard { previous }
    }

    /// The context installed on the current thread, if any. Worker
    /// threads propagate causality by reading the parent's context
    /// before spawning and installing a refined copy on their own
    /// thread (same pattern as [`Trace::current`]).
    pub fn current() -> Option<TraceCtx> {
        CURRENT_CTX.with(|c| c.get())
    }
}

/// Guard restoring the previously installed [`TraceCtx`] on drop.
pub struct CtxGuard {
    previous: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT_CTX.with(|c| c.set(self.previous));
    }
}

thread_local! {
    static CURRENT_CTX: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// One finished (or in-flight) span inside a [`TraceSnapshot`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Slash-separated name as passed to [`Span::enter`].
    pub name: String,
    /// Index of the parent span in the trace, if any.
    pub parent: Option<usize>,
    /// Nesting depth (roots are 0).
    pub depth: u32,
    /// Wall-clock start, nanoseconds since the trace was created.
    pub start_wall_ns: u64,
    /// Wall-clock duration in nanoseconds (0 while in flight).
    pub wall_ns: u64,
    /// Simulated-time start: the trace's simulated cursor when this
    /// span was entered.
    pub start_sim_ns: f64,
    /// Simulated nanoseconds attributed directly to this span
    /// (children's attributions are *not* included).
    pub sim_ns: f64,
    /// Per-category breakdown of `sim_ns`, in attribution order.
    pub categories: Vec<(&'static str, f64)>,
    /// True once the span guard has dropped.
    pub closed: bool,
    /// Causal identity current when the span was entered.
    pub ctx: Option<TraceCtx>,
    /// Error tag set by [`Span::fail`] — e.g. when a faulted pager
    /// attempt rolls back. A failed span still closes normally, so
    /// chaos-run traces stay well-formed trees.
    pub error: Option<&'static str>,
}

impl SpanRecord {
    fn add_category(&mut self, category: &'static str, ns: f64) {
        self.sim_ns += ns;
        if let Some(slot) = self.categories.iter_mut().find(|(c, _)| *c == category) {
            slot.1 += ns;
        } else {
            self.categories.push((category, ns));
        }
    }
}

#[derive(Debug)]
struct TraceInner {
    spans: Vec<SpanRecord>,
    sim_cursor_ns: f64,
}

/// A collection of hierarchical spans sharing one simulated timeline.
#[derive(Clone)]
pub struct Trace {
    inner: Arc<Mutex<TraceInner>>,
    epoch: Instant,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// New empty trace; the wall-clock epoch is now.
    pub fn new() -> Self {
        Trace {
            inner: Arc::new(Mutex::new(TraceInner {
                spans: Vec::new(),
                sim_cursor_ns: 0.0,
            })),
            epoch: Instant::now(),
        }
    }

    /// Make this trace the current thread's active trace until the
    /// returned guard drops. Nested installs stack (the previous trace
    /// is restored).
    pub fn install(&self) -> TraceGuard {
        let previous = ACTIVE.with(|a| {
            a.borrow_mut().replace(ActiveTrace {
                trace: self.clone(),
                stack: Vec::new(),
            })
        });
        TraceGuard { previous }
    }

    /// The trace installed on the current thread, if any — a cloneable
    /// handle for propagating the active trace into worker threads
    /// (each worker calls [`Trace::install`] on its own thread; spans
    /// from every thread land in the same trace).
    pub fn current() -> Option<Trace> {
        ACTIVE.with(|a| a.borrow().as_ref().map(|t| t.trace.clone()))
    }

    /// Total simulated nanoseconds attributed so far.
    pub fn sim_total_ns(&self) -> f64 {
        self.inner.lock().sim_cursor_ns
    }

    /// Frozen copy of all spans recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            spans: self.inner.lock().spans.clone(),
        }
    }
}

/// Guard restoring the previously installed trace on drop.
pub struct TraceGuard {
    previous: Option<ActiveTrace>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| {
            *a.borrow_mut() = self.previous.take();
        });
    }
}

struct ActiveTrace {
    trace: Trace,
    stack: Vec<usize>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// RAII scope handle returned by [`Span::enter`].
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    /// Index into the active trace, or `usize::MAX` when disarmed.
    idx: usize,
}

const DISARMED: usize = usize::MAX;

impl Span {
    /// Open a nested span named `name` on the current thread's trace.
    ///
    /// Without an installed trace this is a no-op: the returned guard is
    /// disarmed and nothing is allocated.
    pub fn enter(name: &str) -> Span {
        ACTIVE.with(|a| {
            let mut borrow = a.borrow_mut();
            let Some(active) = borrow.as_mut() else {
                return Span { idx: DISARMED };
            };
            let parent = active.stack.last().copied();
            let mut inner = active.trace.inner.lock();
            let start_wall_ns = active.trace.epoch.elapsed().as_nanos() as u64;
            let start_sim_ns = inner.sim_cursor_ns;
            let idx = inner.spans.len();
            let depth = parent.map_or(0, |p| inner.spans[p].depth + 1);
            let ctx = CURRENT_CTX.with(|c| c.get());
            inner.spans.push(SpanRecord {
                name: name.to_string(),
                parent,
                depth,
                start_wall_ns,
                wall_ns: 0,
                start_sim_ns,
                sim_ns: 0.0,
                categories: Vec::new(),
                closed: false,
                ctx,
                error: None,
            });
            drop(inner);
            active.stack.push(idx);
            Span { idx }
        })
    }

    /// Attribute `ns` simulated nanoseconds of `category` to this span
    /// and advance the trace's simulated cursor.
    pub fn add_sim_ns(&self, category: &'static str, ns: f64) {
        if self.idx == DISARMED {
            return;
        }
        ACTIVE.with(|a| {
            let borrow = a.borrow();
            if let Some(active) = borrow.as_ref() {
                let mut inner = active.trace.inner.lock();
                inner.sim_cursor_ns += ns;
                inner.spans[self.idx].add_category(category, ns);
            }
        });
    }

    /// Tag this span with an error. The span still closes normally when
    /// the guard drops — the tag records that the covered work failed
    /// (e.g. a faulted pager attempt that rolled back), keeping the
    /// trace a well-formed tree under fault storms.
    pub fn fail(&self, error: &'static str) {
        if self.idx == DISARMED {
            return;
        }
        ACTIVE.with(|a| {
            let borrow = a.borrow();
            if let Some(active) = borrow.as_ref() {
                let mut inner = active.trace.inner.lock();
                inner.spans[self.idx].error = Some(error);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.idx == DISARMED {
            return;
        }
        ACTIVE.with(|a| {
            let mut borrow = a.borrow_mut();
            if let Some(active) = borrow.as_mut() {
                // Tolerate out-of-order drops: remove this span wherever
                // it sits in the stack.
                if let Some(pos) = active.stack.iter().rposition(|&i| i == self.idx) {
                    active.stack.remove(pos);
                }
                let mut inner = active.trace.inner.lock();
                let start = inner.spans[self.idx].start_wall_ns;
                let now = active.trace.epoch.elapsed().as_nanos() as u64;
                inner.spans[self.idx].wall_ns = now.saturating_sub(start);
                inner.spans[self.idx].closed = true;
            }
        });
    }
}

/// Attribute `ns` simulated nanoseconds of `category` to the innermost
/// open span on the current thread. No-op (and allocation-free) when no
/// trace is installed or no span is open.
pub fn add_sim_ns(category: &'static str, ns: f64) {
    ACTIVE.with(|a| {
        let borrow = a.borrow();
        if let Some(active) = borrow.as_ref() {
            if let Some(&idx) = active.stack.last() {
                let mut inner = active.trace.inner.lock();
                inner.sim_cursor_ns += ns;
                inner.spans[idx].add_category(category, ns);
            }
        }
    });
}

/// Frozen view of a [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All spans in creation order (parents precede children).
    pub spans: Vec<SpanRecord>,
}

impl TraceSnapshot {
    /// Total simulated nanoseconds attributed across all spans.
    pub fn sim_total_ns(&self) -> f64 {
        self.spans.iter().map(|s| s.sim_ns).sum()
    }

    /// Sum of simulated nanoseconds per category, over all spans,
    /// sorted by category name.
    pub fn category_totals(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for span in &self.spans {
            for &(cat, ns) in &span.categories {
                if let Some(slot) = totals.iter_mut().find(|(c, _)| *c == cat) {
                    slot.1 += ns;
                } else {
                    totals.push((cat, ns));
                }
            }
        }
        totals.sort_by_key(|&(c, _)| c);
        totals
    }

    /// Simulated nanoseconds attributed to this span *and* all its
    /// descendants.
    pub fn sim_ns_inclusive(&self, idx: usize) -> f64 {
        let mut total = self.spans[idx].sim_ns;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == Some(idx) {
                total += self.sim_ns_inclusive(i);
            }
        }
        total
    }

    /// True when the snapshot is a well-formed forest: every span is
    /// closed and every parent index precedes its child. This is the
    /// invariant chaos tests assert — error-path spans must close (with
    /// an error tag) rather than dangle.
    pub fn is_well_formed(&self) -> bool {
        self.spans
            .iter()
            .enumerate()
            .all(|(i, s)| s.closed && s.parent.is_none_or(|p| p < i))
    }

    /// Spans tagged with an error via [`Span::fail`].
    pub fn error_spans(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.error.is_some()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_hierarchy_and_sim_time() {
        let trace = Trace::new();
        {
            let _g = trace.install();
            let q = Span::enter("query/q1");
            q.add_sim_ns("other", 10.0);
            {
                let s = Span::enter("scan/lineitem");
                s.add_sim_ns("ndp", 100.0);
                add_sim_ns("crypto", 40.0); // free-function form, innermost span
            }
            {
                let _f = Span::enter("freshness");
                add_sim_ns("freshness", 5.0);
            }
        }
        let snap = trace.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].name, "query/q1");
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[1].depth, 1);
        assert_eq!(snap.spans[1].sim_ns, 140.0);
        assert_eq!(snap.spans[1].start_sim_ns, 10.0);
        assert_eq!(snap.sim_total_ns(), 155.0);
        assert_eq!(snap.sim_ns_inclusive(0), 155.0);
        assert_eq!(
            snap.category_totals(),
            vec![("crypto", 40.0), ("freshness", 5.0), ("ndp", 100.0), ("other", 10.0)]
        );
        assert!(snap.spans.iter().all(|s| s.closed));
    }

    #[test]
    fn no_trace_is_noop() {
        let s = Span::enter("orphan");
        s.add_sim_ns("ndp", 99.0);
        add_sim_ns("ndp", 99.0);
        drop(s);
        // Installing afterwards starts clean.
        let trace = Trace::new();
        let _g = trace.install();
        assert_eq!(trace.snapshot().spans.len(), 0);
        assert_eq!(trace.sim_total_ns(), 0.0);
    }

    #[test]
    fn install_stacks_and_restores() {
        let outer = Trace::new();
        let inner = Trace::new();
        let _og = outer.install();
        {
            let _s = Span::enter("outer-span");
            {
                let _ig = inner.install();
                let _t = Span::enter("inner-span");
                add_sim_ns("ndp", 1.0);
            }
            add_sim_ns("other", 2.0);
        }
        assert_eq!(inner.snapshot().spans.len(), 1);
        assert_eq!(inner.sim_total_ns(), 1.0);
        let outer_snap = outer.snapshot();
        assert_eq!(outer_snap.spans.len(), 1);
        assert_eq!(outer_snap.spans[0].sim_ns, 2.0);
    }

    #[test]
    fn wall_time_recorded() {
        let trace = Trace::new();
        {
            let _g = trace.install();
            let _s = Span::enter("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = trace.snapshot();
        assert!(snap.spans[0].wall_ns >= 1_000_000, "{}", snap.spans[0].wall_ns);
    }

    #[test]
    fn traces_are_per_thread() {
        let trace = Trace::new();
        let _g = trace.install();
        let handle = std::thread::spawn(|| {
            // No trace installed on this thread.
            let s = Span::enter("other-thread");
            s.add_sim_ns("ndp", 5.0);
        });
        handle.join().unwrap();
        assert_eq!(trace.snapshot().spans.len(), 0);
    }

    #[test]
    fn ctx_is_recorded_refined_and_restored() {
        assert!(TraceCtx::current().is_none());
        let trace = Trace::new();
        let _g = trace.install();
        {
            let _q = TraceCtx::query(7).install();
            let _s = Span::enter("query/q7");
            {
                let refined =
                    TraceCtx::current().expect("installed").with_morsel(3).with_page_batch(9);
                let _m = refined.install();
                let _t = Span::enter("pager/batch");
                assert_eq!(TraceCtx::current(), Some(refined));
            }
            // Inner guard dropped: the query-level context is restored.
            assert_eq!(TraceCtx::current(), Some(TraceCtx::query(7)));
        }
        assert!(TraceCtx::current().is_none());
        let snap = trace.snapshot();
        assert_eq!(snap.spans[0].ctx, Some(TraceCtx::query(7)));
        let batch = snap.spans[1].ctx.expect("batch span carries ctx");
        assert_eq!((batch.query_id, batch.morsel_id, batch.page_batch_id), (7, Some(3), Some(9)));
    }

    #[test]
    fn failed_spans_close_with_error_tag() {
        let trace = Trace::new();
        {
            let _g = trace.install();
            let s = Span::enter("pager/read_batch");
            s.fail("storage.device.read");
        }
        let snap = trace.snapshot();
        assert!(snap.is_well_formed(), "failed span must still close");
        assert_eq!(snap.error_spans().len(), 1);
        assert_eq!(snap.spans[0].error, Some("storage.device.read"));
    }

    #[test]
    fn disarmed_ctx_and_fail_are_noops() {
        let s = Span::enter("orphan");
        s.fail("nope");
        drop(s);
        let ctx = TraceCtx::query(1).install();
        drop(ctx);
        assert!(TraceCtx::current().is_none());
    }

    #[test]
    fn current_propagates_into_worker_threads() {
        assert!(Trace::current().is_none());
        let trace = Trace::new();
        let _g = trace.install();
        let handle = Trace::current().expect("installed");
        let worker = std::thread::spawn(move || {
            let _wg = handle.install();
            let _s = Span::enter("exec/morsel_worker0");
            add_sim_ns("other", 3.0);
        });
        worker.join().unwrap();
        let snap = trace.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "exec/morsel_worker0");
        assert_eq!(snap.sim_total_ns(), 3.0);
    }
}
