//! Span guards and the per-thread nesting stack.

use crate::Inner;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

/// Identifier of one span, unique within a [`crate::Telemetry`]
/// instance.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub(crate) u64);

/// One closed span as it appears in a drained trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Enclosing span, `None` for roots.
    pub parent: Option<SpanId>,
    /// Span name ("phase3.profile_and_analyze", "action:codegen m1").
    pub name: String,
    /// Dense index of the recording thread.
    pub thread: u64,
    /// Start, microseconds since the handle was created.
    pub start_us: u64,
    /// Real wall duration in microseconds.
    pub dur_us: u64,
    /// Cost-model simulated seconds attributed to this span (0 when
    /// not applicable).
    pub sim_secs: f64,
    /// Peak bytes attributed to this span (e.g. a `MemoryMeter` high
    /// water mark or an action's declared peak RSS).
    pub peak_bytes: u64,
    /// Worker-pool lane that recorded this span, when the recording
    /// code ran under [`crate::Telemetry::with_worker`]. Chrome traces
    /// use it as the lane id so pool concurrency is visible even when
    /// OS threads are reused across phases.
    pub worker: Option<u64>,
}

pub(crate) struct LiveSpan {
    pub inner: Arc<Inner>,
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: Cow<'static, str>,
    pub start_us: u64,
    pub thread: u64,
    pub sim_secs: f64,
    pub peak_bytes: u64,
    pub worker: Option<u64>,
}

/// An open span. Dropping the guard closes the span and records it;
/// a guard from a disabled handle is inert.
#[must_use = "a span records its duration when dropped; binding it to _ closes it immediately"]
pub struct Span {
    live: Option<LiveSpan>,
}

impl Span {
    pub(crate) fn inert() -> Self {
        Span { live: None }
    }

    pub(crate) fn live(
        inner: Arc<Inner>,
        id: SpanId,
        parent: Option<SpanId>,
        name: Cow<'static, str>,
        start_us: u64,
        thread: u64,
    ) -> Self {
        Span {
            live: Some(LiveSpan {
                inner,
                id,
                parent,
                name,
                start_us,
                thread,
                sim_secs: 0.0,
                peak_bytes: 0,
                worker: current_worker(),
            }),
        }
    }

    pub(crate) fn take_live(&mut self) -> Option<LiveSpan> {
        self.live.take()
    }

    /// This span's id, `None` on a disabled handle.
    pub fn id(&self) -> Option<SpanId> {
        self.live.as_ref().map(|l| l.id)
    }

    /// Sets the cost-model simulated seconds this span represents.
    pub fn set_sim_secs(&mut self, secs: f64) {
        if let Some(l) = &mut self.live {
            l.sim_secs = secs;
        }
    }

    /// Sets the peak bytes attributed to this span — the bridge from
    /// `buildsys::MemoryMeter::peak_bytes()` and action peak-RSS
    /// declarations.
    pub fn set_peak_bytes(&mut self, bytes: u64) {
        if let Some(l) = &mut self.live {
            l.peak_bytes = l.peak_bytes.max(bytes);
        }
    }
}

thread_local! {
    /// Innermost-open-span stack, tagged by owning `Inner` so two
    /// Telemetry instances interleaved on one thread never adopt each
    /// other's spans.
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };

    /// Worker-pool lane currently executing on this thread, set by
    /// [`crate::Telemetry::with_worker`]; stamped onto every span the
    /// thread records while set.
    static WORKER: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

pub(crate) fn current_worker() -> Option<u64> {
    WORKER.with(std::cell::Cell::get)
}

pub(crate) fn set_current_worker(worker: Option<u64>) -> Option<u64> {
    WORKER.with(|w| w.replace(worker))
}

fn key(inner: &Inner) -> usize {
    inner as *const Inner as usize
}

pub(crate) fn current_parent(inner: &Inner) -> Option<SpanId> {
    STACK.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|(k, _)| *k == key(inner))
            .map(|&(_, id)| SpanId(id))
    })
}

pub(crate) fn push_current(inner: &Inner, id: SpanId) {
    STACK.with(|s| s.borrow_mut().push((key(inner), id.0)));
}

pub(crate) fn pop_current(inner: &Inner, id: SpanId) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Guards normally drop LIFO; tolerate out-of-order drops by
        // removing the matching entry wherever it sits.
        if let Some(pos) = stack
            .iter()
            .rposition(|&(k, i)| k == key(inner) && i == id.0)
        {
            stack.remove(pos);
        }
    });
}
